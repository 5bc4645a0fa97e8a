"""Shared strategies and draw helpers for the test suite."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from spinpair import CompoundLabel, Direction, expectation
from spinpair.batch import unstack
from spinpair.verify import _DIRECTION, _draw, _four_labels

ANGLE_SPAN = 8.0 * math.pi

raw_angles = st.floats(
    min_value=-ANGLE_SPAN, max_value=ANGLE_SPAN, allow_nan=False, allow_infinity=False
)
directions = st.builds(Direction, raw_angles, raw_angles)
# Angles a direction takes as they are, -0.0 included, and the edges of that
# range: the bounds, the first values past them, and the tiniest angle.
theta_in_range = st.floats(min_value=-0.0, max_value=math.pi)
phi_in_range = st.floats(min_value=-0.0, max_value=2.0 * math.pi, exclude_max=True)
EDGE_ANGLES = [
    0.0,
    -0.0,
    math.nextafter(0.0, -1.0),
    math.pi,
    math.nextafter(math.pi, 4.0),
    math.nextafter(2.0 * math.pi, 0.0),
    2.0 * math.pi,
    1e-300,
]

label_numbers = st.sampled_from(((1, 1), (1, 0), (1, -1), (0, 0)))
compound_labels = st.builds(
    lambda sm, axis: CompoundLabel(sm[0], sm[1], axis), label_numbers, directions
)


def draw_direction(rng) -> Direction:
    """theta on [0, pi) then phi on [0, 2 pi), as verify draws a direction."""
    (ds,) = _draw(rng, 1, [_DIRECTION])
    return ds.points()[0]


four_labels = _four_labels


def inject_blocks(monkeypatch, pair) -> None:
    """Make the matrix route read the blocks ``pair(spec, d, f)`` returns, two
    arrays as ``operator_pair`` returns them, through its seam
    ``expectation._operator_entries``: each block as its entries, row major."""

    def entries(spec, d, f):
        return tuple(unstack(r.reshape(r.shape[:-2] + (4,)), 1) for r in pair(spec, d, f))

    monkeypatch.setattr(expectation, "_operator_entries", entries)
