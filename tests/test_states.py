import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

from spinpair import (
    B_INDEX_ORDER,
    CompoundLabel,
    Direction,
    Directions,
    Z_AXIS,
    assemble_state,
    chi,
    gram_matrix,
    reduce_axis_aligned,
    xi_half,
    zeta_spin1,
)
from spinpair.batch import Complexes, stack
from support import compound_labels, directions, draw_direction, four_labels

SQRT_HALF = math.sqrt(0.5)
STATE_TOL = 1e-12

STANDARD_TENSORS = {
    (1, 1): np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    (1, 0): np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0], dtype=complex),
    (1, -1): np.array([0.0, 0.0, 0.0, -1.0], dtype=complex),
    (0, 0): np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0], dtype=complex),
}


def _eta_plus(d):
    return np.array([math.cos(d.theta / 2), -math.sin(d.theta / 2)], dtype=complex)


def _eta_minus(d):
    w = cmath.exp(-1j * d.phi)
    return np.array([math.sin(d.theta / 2) * w, math.cos(d.theta / 2) * w])


class TestAssembleState:
    @pytest.mark.parametrize("s,M", [(1, 1), (1, 0), (1, -1), (0, 0)])
    def test_standard_limit_tensor(self, s, M):
        asm = assemble_state(CompoundLabel(s, M, Z_AXIS), Z_AXIS, Z_AXIS)
        assert np.max(np.abs(asm.tensor - STANDARD_TENSORS[(s, M)])) < 1e-15

    @given(compound_labels, directions, directions)
    @settings(max_examples=150)
    def test_unit_norm(self, label, d, f):
        t = assemble_state(label, d, f).tensor
        assert abs(np.vdot(t, t).real - 1.0) < STATE_TOL

    def test_coefficients_are_exactly_chi(self, rng):
        for _ in range(20):
            d, f = draw_direction(rng), draw_direction(rng)
            for label in four_labels(draw_direction(rng)):
                asm = assemble_state(label, d, f)
                for term, (m1, m2) in zip(asm.terms, B_INDEX_ORDER):
                    assert term.coefficient == chi(label, m1, m2)

    def test_tensor_is_the_sum_of_its_terms(self, rng):
        # exact against the sum on Python complex numbers in the order the
        # tensor is built: per m1, u[j] = sum over m2 of coefficient *
        # eta2[j], then eta1[i] * u[j] onto 0j, PLUS first; within 4 eps of
        # np.kron, whose SIMD loops may fuse a multiply and an add
        label = CompoundLabel(1, -1, draw_direction(rng))
        asm = assemble_state(label, draw_direction(rng), draw_direction(rng))
        total = [0j] * 4
        for first, second in (asm.terms[:2], asm.terms[2:]):  # m1 = PLUS, then MINUS
            u = [
                first.coefficient * x + second.coefficient * y
                for x, y in zip(first.eta2.tolist(), second.eta2.tolist())
            ]
            eta1 = first.eta1.tolist()
            for i in range(2):
                for j in range(2):
                    total[2 * i + j] += eta1[i] * u[j]
        kron_total = np.zeros(4, dtype=complex)
        for term in asm.terms:
            kron_total += term.coefficient * np.kron(term.eta1, term.eta2)
        assert np.array_equal(asm.tensor, total)
        assert np.max(np.abs(asm.tensor - kron_total)) <= 4 * np.finfo(float).eps

    def test_terms_follow_the_index_order(self, rng):
        d, f = draw_direction(rng), draw_direction(rng)
        asm = assemble_state(CompoundLabel(0, 0, Z_AXIS), d, f)
        assert len(asm.terms) == 4
        assert np.array_equal(asm.terms[1].eta1, _eta_plus(d))
        assert np.max(np.abs(asm.terms[1].eta2 - _eta_minus(f))) < 1e-15

    def test_tensor_is_read_only(self):
        asm = assemble_state(CompoundLabel(0, 0, Z_AXIS), Z_AXIS, Z_AXIS)
        with pytest.raises(ValueError):
            asm.tensor[0] = 1.0


def _hex(values) -> list:
    """float.hex of each real and imaginary part; a batch's values as an array."""
    if isinstance(values, Complexes):
        values = stack([values], ())
    return [(v.real.hex(), v.imag.hex()) for v in np.ravel(values).tolist()]


# Fresh objects for each test, so no test reads rows another test kept: a
# point, the z axis (which keeps nothing) and a batch whose label axis is a
# batch too, so that its coefficients depend on the point.
BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda: (
            CompoundLabel(1, 0, Direction(0.4, 1.0)), Direction(0.7, 2.5), Direction(1.1, 0.3)
        ),
        lambda: (CompoundLabel(1, 1, Z_AXIS), Z_AXIS, Z_AXIS),
        lambda: (
            CompoundLabel(1, -1, Directions([0.4, 2.0, 0.0], [1.0, 3.0, 0.0])),
            Directions([0.7, 1.2, math.pi], [2.5, 2.0, 5.5]),
            Directions([1.1, 0.0, 1e-300], [0.3, 4.0, 1.0]),
        ),
    ],
    ids=["point", "z axis", "batch"],
)


class TestWhatAStateIsBuiltFrom:
    """The terms of a state are the chi values and the rows of
    ``xi_half(Z_AXIS, .)``, on arrays that nothing outside can write."""

    @BUILDS
    def test_every_eta_is_read_only(self, build):
        for term in assemble_state(*build()).terms:
            for eta in (term.eta1, term.eta2):
                with pytest.raises(ValueError):
                    eta[...] = 0.0

    @BUILDS
    def test_each_term_is_a_chi_value_and_two_xi_half_rows(self, build):
        label, d, f = build()
        rows1, rows2 = xi_half(Z_AXIS, d), xi_half(Z_AXIS, f)
        for term, (m1, m2) in zip(assemble_state(label, d, f).terms, B_INDEX_ORDER):
            assert _hex(term.eta1) == _hex(rows1[..., m1, :])
            assert _hex(term.eta2) == _hex(rows2[..., m2, :])
            assert _hex(term.coefficient) == _hex(chi(label, m1, m2))

    @BUILDS
    def test_writing_a_returned_xi_half_array_leaves_a_later_state_as_it_was(self, build):
        label, d, f = build()
        earlier = [xi_half(Z_AXIS, d), xi_half(Z_AXIS, f)]  # before any state is built

        def bits(asm):
            return [_hex(asm.tensor)] + [
                (_hex(t.coefficient), _hex(t.eta1), _hex(t.eta2)) for t in asm.terms
            ]

        first = assemble_state(label, d, f)
        want = bits(first)
        for a in earlier + [xi_half(Z_AXIS, d), xi_half(Z_AXIS, f)]:
            a[...] = math.nan
        assert bits(assemble_state(label, d, f)) == want
        assert bits(first) == want

    @BUILDS
    def test_no_write_reaches_a_state_or_a_kept_array_through_its_base(self, build):
        # a read-only array over a writeable one would let every later
        # xi_half(Z_AXIS, d) and state read what a write put there
        label, d, f = build()
        asm = assemble_state(label, d, f)
        arrays = [asm.tensor, *(eta for t in asm.terms for eta in (t.eta1, t.eta2))]
        for x in (label.axis, d, f):
            xi_half(Z_AXIS, x), zeta_spin1(1, x)  # so every direction but Z_AXIS keeps both
            if x is not Z_AXIS:
                arrays += [x._xi, *x._zeta]
        for a in arrays:
            for target in (a, a.base):
                if target is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        target[...] = math.nan
        # the public kernels still return fresh arrays to write into
        for fresh in (xi_half(Z_AXIS, d), zeta_spin1(0, f)):
            assert fresh.flags.writeable and fresh.flags.owndata


class TestAxisAlignedReduction:
    def test_requires_the_z_axis(self):
        label = CompoundLabel(1, 1, Direction(0.1, 0.0))
        with pytest.raises(ValueError):
            reduce_axis_aligned(label, Z_AXIS, Z_AXIS)

    def test_a_pole_azimuth_is_a_phase(self, rng):
        # why an axis (0, phi) is no z axis here: the same state times
        # exp(-i M phi), which gram_matrix's exact comparison keeps apart too
        for _ in range(25):
            phi, d, f = 2.0 * math.pi * rng.random(), draw_direction(rng), draw_direction(rng)
            for label in four_labels(Direction(0.0, phi)):
                want = cmath.exp(-1j * label.M * phi) * assemble_state(
                    CompoundLabel(label.s, label.M, Z_AXIS), d, f
                ).tensor
                got = assemble_state(label, d, f).tensor
                assert np.max(np.abs(got - want)) <= 1e-15

    def test_matches_general_assembly(self, rng):
        d, f = draw_direction(rng), draw_direction(rng)
        for label in four_labels(Z_AXIS):
            a = reduce_axis_aligned(label, d, f)
            b = assemble_state(label, d, f)
            assert np.array_equal(a.tensor, b.tensor)

    def test_collapses_to_fixed_combinations(self, rng):
        # with the axis at the pole only the bare coupling pattern survives
        for _ in range(25):
            d, f = draw_direction(rng), draw_direction(rng)
            p1, m1 = _eta_plus(d), _eta_minus(d)
            p2, m2 = _eta_plus(f), _eta_minus(f)
            want = {
                (1, 1): np.kron(p1, p2),
                (1, 0): SQRT_HALF * (np.kron(p1, m2) + np.kron(m1, p2)),
                (1, -1): -np.kron(m1, m2),
                (0, 0): SQRT_HALF * (np.kron(p1, m2) - np.kron(m1, p2)),
            }
            for label in four_labels(Z_AXIS):
                asm = reduce_axis_aligned(label, d, f)
                key = (label.s, label.M)
                assert np.max(np.abs(asm.tensor - want[key])) < STATE_TOL

    def test_coefficient_patterns(self, rng):
        d, f = draw_direction(rng), draw_direction(rng)
        want = {
            (1, 1): np.array([1.0, 0.0, 0.0, 0.0]),
            (1, 0): np.array([0.0, SQRT_HALF, SQRT_HALF, 0.0]),
            (1, -1): np.array([0.0, 0.0, 0.0, -1.0]),
            (0, 0): np.array([0.0, SQRT_HALF, -SQRT_HALF, 0.0]),
        }
        for label in four_labels(Z_AXIS):
            coeffs = np.array(
                [t.coefficient for t in reduce_axis_aligned(label, d, f).terms]
            )
            assert np.max(np.abs(coeffs - want[(label.s, label.M)])) < 1e-15


class TestGramMatrix:
    def test_single_state(self):
        asm = assemble_state(CompoundLabel(1, 1, Z_AXIS), Z_AXIS, Z_AXIS)
        g = gram_matrix([asm])
        assert g.shape == (1, 1)
        assert abs(g[0, 0] - 1.0) < STATE_TOL

    def test_four_states_give_the_identity(self, rng):
        for _ in range(50):
            axis, d, f = (draw_direction(rng) for _ in range(3))
            four = [assemble_state(lb, d, f) for lb in four_labels(axis)]
            assert np.max(np.abs(gram_matrix(four) - np.eye(4))) < STATE_TOL

    def test_conjugate_linear_in_the_first_slot(self, rng):
        axis, d, f = (draw_direction(rng) for _ in range(3))
        a = assemble_state(CompoundLabel(1, 1, axis), d, f)
        b = assemble_state(CompoundLabel(1, 0, axis), d, f)
        g = gram_matrix([a, b])
        assert g[0, 1] == pytest.approx(np.conj(g[1, 0]), abs=1e-15)

    def test_rejects_mixed_directions(self, rng):
        axis = draw_direction(rng)
        a = assemble_state(CompoundLabel(1, 1, axis), Z_AXIS, Z_AXIS)
        b = assemble_state(CompoundLabel(1, 0, axis), Direction(0.5, 0.0), Z_AXIS)
        with pytest.raises(ValueError):
            gram_matrix([a, b])
        c = assemble_state(CompoundLabel(1, 0, Direction(0.5, 1.0)), Z_AXIS, Z_AXIS)
        with pytest.raises(ValueError):
            gram_matrix([a, c])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            gram_matrix([])
