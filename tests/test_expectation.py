import math

import numpy as np
import pytest
from hypothesis import given, settings

import spinpair.expectation as expectation_mod
import spinpair.kernels as kernels_mod
import spinpair.operators as operators_mod
import spinpair.states as states_mod
from spinpair import (
    B_INDEX_ORDER,
    CompoundLabel,
    Direction,
    ExpectationReport,
    InternalConsistencyError,
    MeasurementSpec,
    MINUS,
    OutcomeValues,
    PLUS,
    SPIN_PROJECTION_VALUES,
    Z_AXIS,
    amplitude_psi,
    angle_between,
    assemble_state,
    chsh_value,
    expectation_matrix,
    expectation_oracle,
    operator_pair,
    outcome_probabilities,
    singlet_expectation,
    verify_basis_invariance,
    xi_half,
)
from support import compound_labels, directions, draw_direction, four_labels, inject_blocks

SQRT_HALF = math.sqrt(0.5)
ENGINE_TOL = 1e-10

SINGLET = CompoundLabel(0, 0, Z_AXIS)


def _projection_spec(c1, c2):
    return MeasurementSpec(c1, c2, SPIN_PROJECTION_VALUES, SPIN_PROJECTION_VALUES)


def _random_spec(rng):
    return MeasurementSpec(
        draw_direction(rng),
        draw_direction(rng),
        OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        OutcomeValues(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    )


def _sandwich(psi, r1, r2):
    """vdot(Psi, r1 @ Psi @ r2.T) on Python scalars, summed as expectation_matrix sums."""
    p, a, b = psi.reshape(2, 2).tolist(), r1.tolist(), r2.tolist()
    m = [[a[i][0] * p[0][j] + a[i][1] * p[1][j] for j in (0, 1)] for i in (0, 1)]
    terms = [
        p[i][j].conjugate() * (m[i][0] * b[j][0] + m[i][1] * b[j][1])
        for i in (0, 1)
        for j in (0, 1)
    ]
    return sum(terms[1:], terms[0]).real


def _random_label(rng):
    s, M = ((1, 1), (1, 0), (1, -1), (0, 0))[rng.integers(0, 4)]
    return CompoundLabel(s, M, draw_direction(rng))


class TestAmplitude:
    def test_singlet_equal_outcomes_vanish_along_z(self):
        assert amplitude_psi(SINGLET, Z_AXIS, Z_AXIS, PLUS, PLUS) == 0j
        assert amplitude_psi(SINGLET, Z_AXIS, Z_AXIS, MINUS, MINUS) == 0j

    def test_singlet_opposite_outcomes_along_z(self):
        got = amplitude_psi(SINGLET, Z_AXIS, Z_AXIS, PLUS, MINUS)
        assert abs(got - SQRT_HALF) < 1e-15

    def test_singlet_is_the_antisymmetric_combination(self, rng):
        for _ in range(50):
            c1, c2 = draw_direction(rng), draw_direction(rng)
            x1, x2 = xi_half(Z_AXIS, c1), xi_half(Z_AXIS, c2)
            for u, v in B_INDEX_ORDER:
                want = SQRT_HALF * (
                    x1[0, u] * x2[1, v] - x1[1, u] * x2[0, v]
                )
                got = amplitude_psi(SINGLET, c1, c2, u, v)
                assert abs(got - want) < 1e-14

    def test_singlet_equal_outcome_probability_tracks_the_opening_angle(self, rng):
        for _ in range(100):
            c1, c2 = draw_direction(rng), draw_direction(rng)
            gamma = angle_between(c1, c2)
            p = abs(amplitude_psi(SINGLET, c1, c2, PLUS, PLUS)) ** 2
            assert abs(p - 0.5 * math.sin(gamma / 2) ** 2) < 1e-12


class TestProbabilities:
    def test_aligned_stretched_state_is_certain(self):
        label = CompoundLabel(1, 1, Z_AXIS)
        p = outcome_probabilities(label, Z_AXIS, Z_AXIS)
        assert np.max(np.abs(p - np.array([1.0, 0.0, 0.0, 0.0]))) < 1e-15

    def test_singlet_quadruple_in_one_plane(self, rng):
        for _ in range(50):
            theta = rng.uniform(0.0, math.pi)
            p = outcome_probabilities(SINGLET, Z_AXIS, Direction(theta, 0.0))
            half_sin2 = 0.5 * math.sin(theta / 2) ** 2
            half_cos2 = 0.5 * math.cos(theta / 2) ** 2
            want = np.array([half_sin2, half_cos2, half_cos2, half_sin2])
            assert np.max(np.abs(p - want)) < 1e-12

    @given(compound_labels, directions, directions)
    @settings(max_examples=150)
    def test_nonnegative_and_complete(self, label, c1, c2):
        p = outcome_probabilities(label, c1, c2)
        assert np.all(p >= 0.0)
        assert abs(float(np.sum(p)) - 1.0) < 1e-12


class TestExpectationRoutes:
    def test_unit_values_give_unit_expectation(self, rng):
        label = _random_label(rng)
        spec = MeasurementSpec(
            draw_direction(rng),
            draw_direction(rng),
            OutcomeValues(1.0, 1.0),
            OutcomeValues(1.0, 1.0),
        )
        assert expectation_oracle(label, spec) == pytest.approx(1.0, abs=1e-12)
        assert expectation_matrix(label, spec) == pytest.approx(1.0, abs=1e-12)

    def test_aligned_stretched_state_correlation(self):
        label = CompoundLabel(1, 1, Z_AXIS)
        spec = _projection_spec(Z_AXIS, Z_AXIS)
        assert expectation_oracle(label, spec) == pytest.approx(1.0, abs=1e-14)

    def test_routes_agree_everywhere(self, rng):
        for _ in range(300):
            label = _random_label(rng)
            spec = _random_spec(rng)
            d, f = draw_direction(rng), draw_direction(rng)
            matrix = expectation_matrix(label, spec, d, f)
            oracle = expectation_oracle(label, spec)
            assert abs(matrix - oracle) < ENGINE_TOL

    def test_matrix_route_ignores_the_intermediates(self, rng):
        label = _random_label(rng)
        spec = _random_spec(rng)
        base = expectation_matrix(label, spec)
        for _ in range(25):
            moved = expectation_matrix(label, spec, draw_direction(rng), draw_direction(rng))
            assert abs(moved - base) < ENGINE_TOL

    def test_matrix_route_reads_the_assembled_state(self, rng):
        # expectation_matrix builds its tensor without assemble_state; equal
        # values keep the two from drifting apart
        for _ in range(50):
            spec = _random_spec(rng)
            d, f = draw_direction(rng), draw_direction(rng)
            pair = operator_pair(spec, d, f)
            for label in four_labels(draw_direction(rng)):
                want = _sandwich(assemble_state(label, d, f).tensor, *pair)
                assert expectation_matrix(label, spec, d, f) == want

    def test_a_point_of_the_matrix_route_builds_no_array(self, rng, monkeypatch):
        # the route reads entries end to end: stubs in place of stack and
        # unstack, which build and unpack arrays, leave every value as it was
        points = [(_random_spec(rng), draw_direction(rng), draw_direction(rng)) for _ in range(5)]
        labels = four_labels(draw_direction(rng))
        want = [expectation_matrix(label, *point) for point in points for label in labels]

        def refuse(*args):
            raise AssertionError("the matrix route built or unpacked an array")

        for mod in (operators_mod, states_mod, expectation_mod):
            monkeypatch.setattr(mod, "stack", refuse)
        monkeypatch.setattr(expectation_mod, "unstack", refuse)
        got = [expectation_matrix(label, *point) for point in points for label in labels]
        assert got == want

    def test_imaginary_residue_guard(self, rng, monkeypatch):
        # force a non-Hermitian block through the quadratic form; a diagonal
        # imaginary entry keeps the residue nonzero for every state
        def broken_pair(spec, d, f):
            return np.array([[1.0j, 0.0], [0.0, 0.0]]), np.eye(2)

        inject_blocks(monkeypatch, broken_pair)
        label = CompoundLabel(1, 0, Z_AXIS)
        with pytest.raises(InternalConsistencyError):
            expectation_mod.expectation_matrix(label, _random_spec(rng))

    @pytest.mark.parametrize(
        "values1, values2, residue, raises",
        [
            ((1, -1), (1, -1), 2e-12, True),  # spin projections: the bound stays 1e-12
            ((0.5, -0.5), (0.5, 0.25), 8e-13, False),  # products below 1 keep 1e-12
            ((10, -10), (1, -1), 2e-12, False),  # a product of 10 allows 1e-11
            ((10, -10), (1, -1), 2e-11, True),
        ],
    )
    def test_imaginary_bound_scales_with_the_outcome_values(
        self, monkeypatch, values1, values2, residue, raises
    ):
        # a residue forced onto the quadratic form of a unit-norm state
        def residue_pair(spec, d, f):
            return (1.0 + residue * 1j) * np.eye(2), np.eye(2)

        inject_blocks(monkeypatch, residue_pair)
        spec = MeasurementSpec(
            Z_AXIS, Z_AXIS, OutcomeValues(*values1), OutcomeValues(*values2)
        )
        label = CompoundLabel(1, 0, Z_AXIS)
        if raises:
            with pytest.raises(InternalConsistencyError, match="imaginary part"):
                expectation_mod.expectation_matrix(label, spec)
        else:
            assert expectation_mod.expectation_matrix(label, spec) == pytest.approx(1.0)


    def test_oracle_values_are_python_floats(self, rng):
        label, spec = _random_label(rng), _random_spec(rng)
        dirs = [draw_direction(rng) for _ in range(4)]
        assert type(expectation_oracle(label, spec)) is float
        assert type(singlet_expectation(*dirs[:2])) is float
        assert type(chsh_value(*dirs)) is float

    def test_unrolled_oracle_sums_equal_their_loops(self, rng):
        # amplitude_psi and expectation_oracle add their terms in the order
        # of these loops, so the results are equal, not just close
        for _ in range(200):
            label, spec = _random_label(rng), _random_spec(rng)
            x1 = xi_half(Z_AXIS, spec.c1).tolist()
            x2 = xi_half(Z_AXIS, spec.c2).tolist()
            r1 = (spec.values1.r_plus, spec.values1.r_minus)
            r2 = (spec.values2.r_plus, spec.values2.r_minus)
            p = outcome_probabilities(label, spec.c1, spec.c2)
            value = 0.0
            for k, (u, v) in enumerate(B_INDEX_ORDER):
                psi = 0j
                for m1, m2 in B_INDEX_ORDER:
                    psi += kernels_mod.chi(label, m1, m2) * x1[m1][u] * x2[m2][v]
                assert amplitude_psi(label, spec.c1, spec.c2, u, v) == psi
                value += p[k] * r1[u] * r2[v]
            assert expectation_oracle(label, spec) == value


class TestBasisInvarianceReport:
    def test_single_point_grid_has_zero_spread(self, rng):
        report = verify_basis_invariance(
            _random_label(rng), _random_spec(rng), [(Z_AXIS, Z_AXIS)]
        )
        assert report.basis_invariance_residual == 0.0
        assert report.residual == abs(
            report.value_matrix_path - report.value_oracle_path
        )

    def test_grid_spread_is_rounding_noise(self, rng):
        grid = [(draw_direction(rng), draw_direction(rng)) for _ in range(9)]
        report = verify_basis_invariance(_random_label(rng), _random_spec(rng), grid)
        assert report.basis_invariance_residual < ENGINE_TOL
        assert abs(sum(report.probabilities) - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    def test_a_nan_at_any_pair_is_an_internal_consistency_error(self, rng, monkeypatch, bad):
        # max and min skip a NaN unless it comes first, which hid it at pairs 1-3
        true_route, calls = expectation_mod.expectation_matrix, []

        def nan_once(label, spec, d, f):
            calls.append(None)
            return math.nan if len(calls) == bad + 1 else true_route(label, spec, d, f)

        monkeypatch.setattr(expectation_mod, "expectation_matrix", nan_once)
        grid = [(draw_direction(rng), draw_direction(rng)) for _ in range(4)]
        with pytest.raises(InternalConsistencyError, match="finite"):
            verify_basis_invariance(_random_label(rng), _random_spec(rng), grid)
        assert len(calls) == 4

    def test_rejects_an_empty_grid(self, rng):
        with pytest.raises(ValueError):
            verify_basis_invariance(_random_label(rng), _random_spec(rng), [])

    def test_report_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ExpectationReport(0.0, 0.0, (0.5, 0.5, 0.5, 0.5), 0.0, 0.0)
        with pytest.raises(ValueError):
            ExpectationReport(0.0, 0.0, (-0.1, 0.5, 0.3, 0.3), 0.0, 0.0)
        # in range and summing to 1, but not four of them
        for probabilities in ((0.5, 0.5), (0.2,) * 5):
            with pytest.raises(ValueError, match="four"):
                ExpectationReport(0.0, 0.0, probabilities, 0.0, 0.0)

    @pytest.mark.parametrize("field", range(8))
    def test_report_rejects_a_nan_or_infinite_number(self, field):
        # the four probabilities, then both values and both residuals
        for bad in (math.nan, math.inf):
            numbers = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0]
            numbers[field] = bad
            *probabilities, matrix, oracle, residual, spread = numbers
            with pytest.raises(ValueError):
                ExpectationReport(matrix, oracle, tuple(probabilities), residual, spread)


class TestSingletPhysics:
    def test_correlation_is_minus_cosine(self, rng):
        for theta in np.linspace(0.0, math.pi, 181):
            got = singlet_expectation(Z_AXIS, Direction(float(theta), 0.0))
            assert abs(got + math.cos(theta)) < ENGINE_TOL

    def test_correlation_depends_only_on_the_opening_angle(self, rng):
        for _ in range(100):
            c1, c2 = draw_direction(rng), draw_direction(rng)
            gamma = angle_between(c1, c2)
            assert abs(singlet_expectation(c1, c2) + math.cos(gamma)) < ENGINE_TOL

    def test_rotating_both_settings_changes_nothing(self, rng):
        for _ in range(50):
            c1, c2 = draw_direction(rng), draw_direction(rng)
            delta = rng.uniform(0.0, 2.0 * math.pi)
            turned = singlet_expectation(
                Direction(c1.theta, c1.phi + delta), Direction(c2.theta, c2.phi + delta)
            )
            assert abs(singlet_expectation(c1, c2) - turned) < 1e-12


class TestChsh:
    def test_degenerate_settings_collapse_to_twice_the_correlation(self, rng):
        a, b = draw_direction(rng), draw_direction(rng)
        got = chsh_value(a, a, b, b)
        assert abs(got - 2.0 * singlet_expectation(a, b)) < 1e-14

    def test_all_equal_settings_give_minus_two(self, rng):
        a = draw_direction(rng)
        assert chsh_value(a, a, a, a) == pytest.approx(-2.0, abs=1e-12)

    def test_quarter_spaced_coplanar_settings_saturate_the_bound(self):
        s = chsh_value(
            Direction(math.pi / 2, 0.0),
            Z_AXIS,
            Direction(math.pi / 4, 0.0),
            Direction(3 * math.pi / 4, 0.0),
        )
        assert abs(abs(s) - 2.0 * math.sqrt(2.0)) < ENGINE_TOL

    def test_bound_holds_for_arbitrary_settings(self, rng):
        for _ in range(200):
            dirs = [draw_direction(rng) for _ in range(4)]
            assert abs(chsh_value(*dirs)) <= 2.0 * math.sqrt(2.0) + 1e-10
