"""Shared strategies and draw helpers for the test suite."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from spinpair import CompoundLabel, Direction
from spinpair.verify import _DIRECTION, _draw, _four_labels

ANGLE_SPAN = 8.0 * math.pi

raw_angles = st.floats(
    min_value=-ANGLE_SPAN, max_value=ANGLE_SPAN, allow_nan=False, allow_infinity=False
)
directions = st.builds(Direction, raw_angles, raw_angles)

label_numbers = st.sampled_from(((1, 1), (1, 0), (1, -1), (0, 0)))
compound_labels = st.builds(
    lambda sm, axis: CompoundLabel(sm[0], sm[1], axis), label_numbers, directions
)


def draw_direction(rng) -> Direction:
    """theta on [0, pi) then phi on [0, 2 pi), as verify draws a direction."""
    (ds,) = _draw(rng, 1, [_DIRECTION])
    return ds.points()[0]


four_labels = _four_labels
