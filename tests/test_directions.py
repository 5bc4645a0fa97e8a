import math

import pytest
from hypothesis import given

from spinpair import Direction, Z_AXIS, angle_between, unit_vector
from support import directions, raw_angles

TWO_PI = 2.0 * math.pi


class TestCanonicalization:
    @given(raw_angles, raw_angles)
    def test_angles_land_in_range(self, theta, phi):
        d = Direction(theta, phi)
        assert 0.0 <= d.theta <= math.pi
        assert 0.0 <= d.phi < TWO_PI

    @given(raw_angles, raw_angles)
    def test_idempotent(self, theta, phi):
        d = Direction(theta, phi)
        assert Direction(d.theta, d.phi) == d

    @given(raw_angles, raw_angles)
    def test_same_point_on_the_sphere(self, theta, phi):
        # reduction must not move the direction, only relabel it
        raw = (
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )
        canon = unit_vector(Direction(theta, phi))
        assert max(abs(a - b) for a, b in zip(raw, canon)) < 1e-12

    def test_negative_theta_flips_azimuth(self):
        d = Direction(-math.pi / 4, 0.0)
        assert d.theta == pytest.approx(math.pi / 4, abs=1e-15)
        assert d.phi == pytest.approx(math.pi, abs=1e-15)

    def test_full_turn_is_dropped(self):
        assert Direction(TWO_PI, 0.5) == Direction(0.0, 0.5)

    @pytest.mark.parametrize("theta, phi", [(-0.0, -0.0), (-TWO_PI, 0.0)])
    def test_no_angle_is_negative_zero(self, theta, phi):
        # fmod keeps the sign of a zero, which would print as -0.0
        d = Direction(theta, phi)
        assert math.copysign(1.0, d.theta) == math.copysign(1.0, d.phi) == 1.0

    def test_pole_keeps_azimuth(self):
        assert Direction(0.0, 1.25).phi == 1.25
        assert Direction(math.pi, 4.0).phi == 4.0

    def test_in_range_input_is_untouched(self):
        d = Direction(2.0, 5.0)
        assert (d.theta, d.phi) == (2.0, 5.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Direction(bad, 0.0)
        with pytest.raises(ValueError):
            Direction(0.0, bad)


class TestAngleBetween:
    @given(directions)
    def test_zero_for_self(self, d):
        assert angle_between(d, d) == pytest.approx(0.0, abs=1e-7)

    @given(directions, directions)
    def test_symmetric(self, a, b):
        assert angle_between(a, b) == angle_between(b, a)

    def test_opposite_directions(self):
        a = Direction(0.3, 1.0)
        b = Direction(math.pi - 0.3, 1.0 + math.pi)
        assert angle_between(a, b) == pytest.approx(math.pi, abs=1e-12)

    def test_orthogonal_pair(self):
        assert angle_between(Z_AXIS, Direction(math.pi / 2, 0.7)) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    @given(directions, directions)
    def test_matches_cartesian_dot_product(self, a, b):
        dot = sum(x * y for x, y in zip(unit_vector(a), unit_vector(b)))
        want = math.acos(max(-1.0, min(1.0, dot)))
        assert angle_between(a, b) == pytest.approx(want, abs=1e-7)

    # acos of the dot product returns 0.0 and pi for these two pairs
    def test_nearly_parallel_pair_keeps_relative_precision(self):
        a = Direction(1.0, 0.5)
        b = Direction(1.0 + 1e-9, 0.5)
        assert angle_between(a, b) == pytest.approx(1e-9, rel=1e-6)

    def test_nearly_opposite_pair_keeps_relative_precision(self):
        # b is 1e-9 short of the antipode (pi - 1.0, 0.5 + pi) of a; rounding
        # pi to a double alone moves the deficit by about 2.4e-16
        a = Direction(1.0, 0.5)
        b = Direction(math.pi - 1.0 + 1e-9, 0.5 + math.pi)
        assert math.pi - angle_between(a, b) == pytest.approx(1e-9, rel=1e-6)
