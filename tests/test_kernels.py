import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

import spinpair.kernels as kernels_mod
from spinpair import (
    B_INDEX_ORDER,
    MINUS,
    PLUS,
    CompoundLabel,
    Direction,
    Z_AXIS,
    chi,
    clebsch_gordan_half_half,
    xi_half,
    zeta_spin1,
)
from support import compound_labels, directions, draw_direction, four_labels

SQRT_HALF = math.sqrt(0.5)
KERNEL_TOL = 1e-12


def _spinor_columns(d):
    # Orthonormal column pair attached to a direction; contracting two such
    # frames reproduces the direction-change matrix entry by entry, which
    # makes this an independent route to the same numbers.
    c = math.cos(d.theta / 2.0)
    s = math.sin(d.theta / 2.0)
    w = cmath.exp(1j * d.phi)
    return np.array([[c, -s], [w * s, w * c]])


def _xi_reference(initial, final):
    return _spinor_columns(initial).T @ _spinor_columns(final).conj()


class TestXiHalf:
    @given(directions)
    def test_same_direction_gives_identity(self, d):
        assert np.max(np.abs(xi_half(d, d) - np.eye(2))) < KERNEL_TOL

    def test_rows_from_the_pole(self):
        f = Direction(1.1, 2.3)
        x = xi_half(Z_AXIS, f)
        want_plus = np.array([math.cos(0.55), -math.sin(0.55)])
        want_minus = np.array([math.sin(0.55), math.cos(0.55)]) * cmath.exp(-2.3j)
        assert np.max(np.abs(x[0] - want_plus)) < 1e-15
        assert np.max(np.abs(x[1] - want_minus)) < 1e-15

    def test_quarter_turn_amplitude(self):
        # starting at the equator, measuring along z
        x = xi_half(Direction(math.pi / 2, 0.0), Z_AXIS)
        assert x[0, 0] == pytest.approx(0.7071067811865476, abs=1e-15)

    @given(directions, directions)
    @settings(max_examples=200)
    def test_matches_spinor_frame_contraction(self, i, f):
        assert np.max(np.abs(xi_half(i, f) - _xi_reference(i, f))) < 1e-14

    @given(directions, directions)
    @settings(max_examples=200)
    def test_unitary(self, i, f):
        x = xi_half(i, f)
        assert np.max(np.abs(x @ x.conj().T - np.eye(2))) < KERNEL_TOL

    @given(directions, directions)
    @settings(max_examples=200)
    def test_swap_conjugate_transposes(self, i, f):
        assert np.max(np.abs(xi_half(f, i) - xi_half(i, f).conj().T)) < KERNEL_TOL

    @given(directions, directions, directions)
    @settings(max_examples=200)
    def test_composes_through_any_middle_direction(self, a, b, c):
        chained = xi_half(a, b) @ xi_half(b, c)
        assert np.max(np.abs(xi_half(a, c) - chained)) < KERNEL_TOL


class TestEtaFromZ:
    # The z-basis eta vectors are the rows of xi_half(Z_AXIS, f): row m holds
    # the amplitudes from projection m along z to both outcomes along f.
    def test_plus_along_z_is_pure(self):
        assert np.array_equal(xi_half(Z_AXIS, Z_AXIS)[PLUS], np.array([1.0 + 0j, 0j]))

    def test_minus_along_z_is_pure(self):
        assert np.array_equal(xi_half(Z_AXIS, Z_AXIS)[MINUS], np.array([0j, 1.0 + 0j]))

    def test_plus_to_equator(self):
        got = xi_half(Z_AXIS, Direction(math.pi / 2, 0.0))[PLUS]
        want = np.array([0.7071067811865476, -0.7071067811865476])
        assert np.max(np.abs(got - want)) < 1e-15

    def test_minus_carries_the_azimuth_phase(self):
        f = Direction(0.8, 2.1)
        got = xi_half(Z_AXIS, f)[MINUS]
        want = np.array([math.sin(0.4), math.cos(0.4)]) * cmath.exp(-2.1j)
        assert np.max(np.abs(got - want)) < 1e-15

    @given(directions)
    def test_unit_norm(self, f):
        for e in xi_half(Z_AXIS, f):
            assert abs(np.vdot(e, e).real - 1.0) < KERNEL_TOL


class TestZetaSpin1:
    def test_aligned_top_projection_is_pure(self):
        assert np.max(np.abs(zeta_spin1(1, Z_AXIS) - np.array([1, 0, 0]))) < 1e-15

    def test_middle_projection_at_sixty_degrees(self):
        got = zeta_spin1(0, Direction(math.pi / 3, 0.0))
        want = np.array(
            [-SQRT_HALF * math.sin(math.pi / 3), 0.5, SQRT_HALF * math.sin(math.pi / 3)]
        )
        assert np.max(np.abs(got - want)) < 1e-15

    def test_printed_forms(self):
        a = Direction(0.9, 1.7)
        c2 = math.cos(0.45) ** 2
        s2 = math.sin(0.45) ** 2
        s = math.sin(0.9)
        em = cmath.exp(-1.7j)
        ep = cmath.exp(1.7j)
        cases = {
            1: np.array([c2 * em, SQRT_HALF * s, s2 * ep]),
            0: np.array([-SQRT_HALF * s * em, math.cos(0.9), SQRT_HALF * s * ep]),
            -1: np.array([-s2 * em, SQRT_HALF * s, -c2 * ep]),
        }
        for m, want in cases.items():
            assert np.max(np.abs(zeta_spin1(m, a) - want)) < 1e-15

    @given(directions)
    def test_unit_norm(self, a):
        for m in (1, 0, -1):
            z = zeta_spin1(m, a)
            assert abs(np.sum(np.abs(z) ** 2) - 1.0) < KERNEL_TOL

    @given(directions)
    def test_three_rows_form_a_unitary_matrix(self, a):
        z = np.array([zeta_spin1(m, a) for m in (1, 0, -1)])
        assert np.max(np.abs(z @ z.conj().T - np.eye(3))) < KERNEL_TOL

    @given(directions)
    def test_conjugate_phase_is_the_negative_exponent_bit_for_bit(self, a):
        # zeta_spin1 takes exp(-i phi) as the conjugate of exp(i phi)
        assert repr(cmath.exp(1j * a.phi).conjugate()) == repr(cmath.exp(-1j * a.phi))

    @pytest.mark.parametrize("bad", [2, -2, 5])
    def test_rejects_bad_projection(self, bad):
        with pytest.raises(ValueError):
            zeta_spin1(bad, Z_AXIS)


# The poles, the neighbours of pi, a subnormal-scale angle and a full turn
# past pi, each as theta and as phi.
_EDGE_ANGLES = (
    0.0,
    math.pi,
    math.pi - 1e-16,
    math.pi + 1e-16,
    math.nextafter(math.pi, 0.0),
    math.nextafter(math.pi, 4.0),
    1e-300,
    3.0 * math.pi,
)


def _core_directions(rng):
    edges = [Direction(theta, phi) for theta in _EDGE_ANGLES for phi in _EDGE_ANGLES]
    return edges + [draw_direction(rng) for _ in range(40)]


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


class TestEntryCores:
    """The private cores hold the formulas that the public kernels wrap in
    arrays, and the matrix route reads the cores; they agree bit for bit."""

    def test_xi_entries_are_the_entries_of_xi_half(self, rng):
        ds = _core_directions(rng)
        for initial in ds:
            for final in ds:
                got = kernels_mod._xi_entries(initial, final)
                assert _bits(got) == _bits(xi_half(initial, final).ravel().tolist())

    def test_zeta_entries_are_the_entries_of_zeta_spin1(self, rng):
        for a in _core_directions(rng):
            for m in (1, 0, -1):
                assert _bits(kernels_mod._zeta_entries(m, a)) == _bits(zeta_spin1(m, a).tolist())


class TestClebschGordan:
    @pytest.mark.parametrize(
        "s,M,m1,m2,want",
        [
            (1, 1, PLUS, PLUS, 1.0),
            (1, 0, PLUS, MINUS, SQRT_HALF),
            (1, 0, MINUS, PLUS, SQRT_HALF),
            (1, -1, MINUS, MINUS, 1.0),
            (0, 0, PLUS, MINUS, SQRT_HALF),
            (0, 0, MINUS, PLUS, -SQRT_HALF),
        ],
    )
    def test_nonzero_entries(self, s, M, m1, m2, want):
        assert clebsch_gordan_half_half(s, M, m1, m2) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize(
        "s,M,m1,m2",
        [
            (1, 1, PLUS, MINUS),
            (1, 1, MINUS, PLUS),
            (1, 1, MINUS, MINUS),
            (1, 0, PLUS, PLUS),
            (1, 0, MINUS, MINUS),
            (1, -1, PLUS, PLUS),
            (1, -1, PLUS, MINUS),
            (1, -1, MINUS, PLUS),
            (0, 0, PLUS, PLUS),
            (0, 0, MINUS, MINUS),
        ],
    )
    def test_selection_rule_zeros_are_exact(self, s, M, m1, m2):
        assert clebsch_gordan_half_half(s, M, m1, m2) == 0.0

    def test_rows_are_orthonormal(self):
        t = np.array(
            [
                [clebsch_gordan_half_half(s, M, m1, m2) for m1, m2 in B_INDEX_ORDER]
                for s, M in ((1, 1), (1, 0), (1, -1), (0, 0))
            ]
        )
        assert np.max(np.abs(t @ t.T - np.eye(4))) < 1e-15

    @pytest.mark.parametrize("s,M", [(2, 0), (1, 2), (0, 1), (-1, 0)])
    def test_rejects_bad_labels(self, s, M):
        with pytest.raises(ValueError):
            clebsch_gordan_half_half(s, M, PLUS, MINUS)

    # 2 * m1 + m2 indexes a row of four from the end for these, so they once
    # answered 1/sqrt(2), 0 and 0
    @pytest.mark.parametrize("s,M,m1,m2", [(1, 0, -1, 0), (0, 0, -1, 1), (1, 1, 0, -1)])
    def test_rejects_projections_other_than_plus_and_minus(self, s, M, m1, m2):
        with pytest.raises(ValueError, match="invalid projection labels"):
            clebsch_gordan_half_half(s, M, m1, m2)


def _chi_quadruple(label):
    return np.array([chi(label, m1, m2) for m1, m2 in B_INDEX_ORDER])


class TestChi:
    def test_aligned_top_state_is_bare_coupling(self):
        label = CompoundLabel(1, 1, Z_AXIS)
        assert chi(label, PLUS, PLUS) == 1.0 + 0j
        assert chi(label, MINUS, MINUS) == 0j

    def test_closed_forms_at_generic_axis(self):
        axis = Direction(0.9, 1.7)
        th, ph = 0.9, 1.7
        c2 = math.cos(th / 2) ** 2
        s2 = math.sin(th / 2) ** 2
        half_sin = 0.5 * math.sin(th)
        em = cmath.exp(-1j * ph)
        ep = cmath.exp(1j * ph)
        want = {
            (1, 1): np.array([c2 * em, half_sin, half_sin, s2 * ep]),
            (1, 0): np.array(
                [
                    -SQRT_HALF * math.sin(th) * em,
                    SQRT_HALF * math.cos(th),
                    SQRT_HALF * math.cos(th),
                    SQRT_HALF * math.sin(th) * ep,
                ]
            ),
            (1, -1): np.array([-s2 * em, half_sin, half_sin, -c2 * ep]),
            (0, 0): np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0]),
        }
        for (s, M), quad in want.items():
            got = _chi_quadruple(CompoundLabel(s, M, axis))
            assert np.max(np.abs(got - quad)) < 1e-14

    def test_singlet_ignores_the_axis(self):
        a = _chi_quadruple(CompoundLabel(0, 0, Direction(2.2, 0.4)))
        b = _chi_quadruple(CompoundLabel(0, 0, Z_AXIS))
        assert np.array_equal(a, b)

    @given(compound_labels)
    def test_unit_weight_across_the_four_slots(self, label):
        total = sum(abs(c) ** 2 for c in _chi_quadruple(label))
        assert abs(total - 1.0) < KERNEL_TOL

    @given(compound_labels)
    def test_equals_its_sum_over_the_spin1_projections(self, label):
        # the terms go onto 0j in M_l order (+1, 0, -1), so the value is
        # equal to this loop's, not just close; _chi_row reads the same sum
        for m1, m2 in B_INDEX_ORDER:
            want = 0j
            if label.s == 0:
                want = complex(clebsch_gordan_half_half(0, 0, m1, m2))
            else:
                zeta = zeta_spin1(label.M, label.axis).tolist()
                for zl, ml in zip(zeta, (1, 0, -1)):
                    want += zl * clebsch_gordan_half_half(1, ml, m1, m2)
            assert chi(label, m1, m2) == want
        assert kernels_mod._chi_row(label) == _chi_quadruple(label).tolist()

    def test_quadruples_are_orthonormal_across_labels(self, rng):
        for _ in range(25):
            axis = draw_direction(rng)
            m = np.array([_chi_quadruple(lb) for lb in four_labels(axis)])
            assert np.max(np.abs(m @ m.conj().T - np.eye(4))) < KERNEL_TOL


class TestCompoundLabel:
    @pytest.mark.parametrize("s,M", [(2, 0), (1, 2), (0, 1), (-1, 0), (0, -1)])
    def test_rejects_bad_quantum_numbers(self, s, M):
        with pytest.raises(ValueError):
            CompoundLabel(s, M, Z_AXIS)

    def test_valid_labels_pass(self):
        for s, M in ((1, 1), (1, 0), (1, -1), (0, 0)):
            CompoundLabel(s, M, Z_AXIS)
