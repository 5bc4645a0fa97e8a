"""Measurement directions on the unit sphere, one at a time or as a batch."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .batch import Complexes, readonly, rect

TWO_PI = 2.0 * math.pi


def _reduce(theta, phi, fmod, where):
    """Angles reduced to theta in [0, pi] and phi in [0, 2*pi), neither -0.0:
    one point's with ``math.fmod`` and a select of one value, a batch's with
    ``np.fmod`` and ``np.where``."""
    theta = fmod(theta, TWO_PI)
    theta = where(theta < 0.0, theta + TWO_PI, theta)
    flip = theta > math.pi
    theta = where(flip, TWO_PI - theta, theta)
    phi = fmod(where(flip, phi + math.pi, phi), TWO_PI)
    phi = where(phi < 0.0, phi + TWO_PI, phi)
    phi = where(phi >= TWO_PI, 0.0, phi)  # fmod can land on the period itself after rounding
    # fmod keeps the sign of a zero; + 0.0 makes -0.0 print as 0.0
    return theta + 0.0, phi + 0.0


@dataclass(frozen=True)
class Direction:
    """A spatial direction given by polar angles (theta, phi) in radians.

    Out-of-range input is reduced using the spherical identifications
    (theta + 2*pi, phi) ~ (theta, phi) and (-theta, phi) ~ (theta, phi + pi),
    so after construction theta lies in [0, pi] and phi in [0, 2*pi), and
    neither is -0.0; angles already in range are taken as they are, so the
    reduction is idempotent.  At the poles the azimuth is kept as given, as a
    phase convention: along (0, phi) every pair state (s, M) is
    exp(-1j*M*phi) times the state along (0, 0), so directions that differ
    only there compare unequal on purpose.  Once a kernel reads them,
    a direction other than ``Z_AXIS`` keeps its rotation rows (see
    ``kernels``), which ==, hash and repr ignore as they are not fields.
    ``Z_AXIS`` keeps nothing, so no run can leave rows behind on it.
    """

    theta: float
    phi: float

    # cos, sin, rect and complex zero, as the formula bodies use them here
    _arithmetic = (math.cos, math.sin, cmath.rect, 0j)

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (0.0 <= theta <= math.pi and 0.0 <= phi < TWO_PI):  # NaN is not in range
            if not (math.isfinite(theta) and math.isfinite(phi)):
                raise ValueError("direction angles must be finite")
            theta, phi = _reduce(theta, phi, math.fmod, lambda c, a, b: a if c else b)
        # in-range angles, which _reduce would give back, with -0.0 made 0.0
        object.__setattr__(self, "theta", theta + 0.0)
        object.__setattr__(self, "phi", phi + 0.0)


Z_AXIS = Direction(0.0, 0.0)


class Directions:
    """A batch of directions: float64 arrays of theta and of phi, one shape.

    Each (theta, phi) pair is reduced exactly as Direction reduces it, so
    point k of a batch has the angles of ``Direction(theta[k], phi[k])``;
    a batch whose angles are all in range takes them as they are.
    The formula bodies run on a batch with NumPy's cos and sin, which give
    the bits of ``math.cos`` and ``math.sin``, and with Complexes values.
    Like a point, a batch keeps its rotation rows from a kernel's first read
    on (see ``kernels``), in the slots after the angles; its angles are
    read-only arrays, so the rows cannot go stale, and a batch taken by
    indexing or copying starts with none.
    """

    __slots__ = ("theta", "phi", "_eta", "_xi", "_zeta")
    __iter__ = None  # not a sequence: points() gives the Direction objects
    _arithmetic = (np.cos, np.sin, rect, Complexes(0.0, 0.0))

    def __init__(self, theta, phi) -> None:
        arrays = [np.asarray(x) for x in (theta, phi)]
        if any(a.dtype.kind == "c" for a in arrays):  # float(), as Direction calls it, refuses them
            raise TypeError("direction angles must be real")
        theta, phi = np.broadcast_arrays(*(a.astype(float, copy=False) for a in arrays))
        if not ((0.0 <= theta) & (theta <= math.pi) & (0.0 <= phi) & (phi < TWO_PI)).all():
            if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
                raise ValueError("direction angles must be finite")
            theta, phi = _reduce(theta, phi, np.fmod, np.where)
        # as a point does; + 0.0 also makes arrays of the batch's own to freeze
        self.theta, self.phi = readonly(theta + 0.0), readonly(phi + 0.0)

    def __getitem__(self, index) -> Directions:
        """The directions at a NumPy ``index`` into the batch axes, whose
        angles are reduced already and so are taken as they are."""
        batch = object.__new__(Directions)
        # a mask or an index array copies, which would be writeable
        batch.theta, batch.phi = readonly(self.theta[index]), readonly(self.phi[index])
        return batch

    def __reduce__(self):
        # a copy or an unpickled batch is built again from its angles, so its
        # angles are read-only too and it keeps no rows
        return Directions, (self.theta, self.phi)

    def points(self) -> list[Direction]:
        """The batch as Direction objects, in row-major order."""
        angles = zip(self.theta.ravel().tolist(), self.phi.ravel().tolist())
        return [Direction(theta, phi) for theta, phi in angles]


def angle_between(a: Direction, b: Direction) -> float:
    """Opening angle between two directions, in [0, pi].

    Taken as atan2(|a x b|, a . b), which keeps full relative precision for
    nearly parallel and nearly opposite directions, where acos of the dot
    product loses it (Kahan, "How Futile are Mindless Assessments of
    Roundoff in Floating-Point Computation?", 2006).
    """
    ax, ay, az = unit_vector(a)
    bx, by, bz = unit_vector(b)
    cross = math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    return math.atan2(cross, ax * bx + ay * by + az * bz)


def unit_vector(d: Direction) -> tuple[float, float, float]:
    """Cartesian components of the direction."""
    return (
        math.sin(d.theta) * math.cos(d.phi),
        math.sin(d.theta) * math.sin(d.phi),
        math.cos(d.theta),
    )
