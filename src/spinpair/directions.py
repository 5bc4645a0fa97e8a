"""Measurement directions on the unit sphere, one at a time or as a batch."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .batch import Complexes, rect

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """A spatial direction given by polar angles (theta, phi) in radians.

    Out-of-range input is reduced using the spherical identifications
    (theta + 2*pi, phi) ~ (theta, phi) and (-theta, phi) ~ (theta, phi + pi),
    so after construction theta lies in [0, pi] and phi in [0, 2*pi), and
    neither is -0.0.  The reduction is idempotent.  At the poles the azimuth
    is kept as given, as a phase convention: along (0, phi) every pair state
    (s, M) is exp(-1j*M*phi) times the state along (0, 0), so directions that
    differ only there compare unequal on purpose.
    """

    theta: float
    phi: float

    # cos, sin, rect and complex zero, as the formula bodies use them here
    _arithmetic = (math.cos, math.sin, cmath.rect, 0j)

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("direction angles must be finite")
        theta = math.fmod(theta, TWO_PI)
        if theta < 0.0:
            theta += TWO_PI
        if theta > math.pi:
            theta = TWO_PI - theta
            phi += math.pi
        phi = math.fmod(phi, TWO_PI)
        if phi < 0.0:
            phi += TWO_PI
        if phi >= TWO_PI:  # fmod can land on the period itself after rounding
            phi = 0.0
        # fmod keeps the sign of a zero; + 0.0 makes -0.0 print as 0.0
        object.__setattr__(self, "theta", theta + 0.0)
        object.__setattr__(self, "phi", phi + 0.0)


Z_AXIS = Direction(0.0, 0.0)


class Directions:
    """A batch of directions: float64 arrays of theta and of phi, one shape.

    Each (theta, phi) pair is reduced exactly as Direction reduces it, so
    point k of a batch has the angles of ``Direction(theta[k], phi[k])``.
    The formula bodies run on a batch with NumPy's cos and sin, which give
    the bits of ``math.cos`` and ``math.sin``, and with Complexes values.
    """

    __slots__ = ("theta", "phi")
    __iter__ = None  # not a sequence: points() gives the Direction objects
    _arithmetic = (np.cos, np.sin, rect, Complexes(0.0, 0.0))

    def __init__(self, theta, phi) -> None:
        theta, phi = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (theta, phi)))
        if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
            raise ValueError("direction angles must be finite")
        theta = np.fmod(theta, TWO_PI)
        theta = np.where(theta < 0.0, theta + TWO_PI, theta)
        flip = theta > math.pi
        theta = np.where(flip, TWO_PI - theta, theta)
        phi = np.fmod(np.where(flip, phi + math.pi, phi), TWO_PI)
        phi = np.where(phi < 0.0, phi + TWO_PI, phi)
        phi = np.where(phi >= TWO_PI, 0.0, phi)
        self.theta = theta + 0.0
        self.phi = phi + 0.0

    def __getitem__(self, index) -> Directions:
        """The directions at a NumPy ``index`` into the batch axes."""
        return Directions(self.theta[index], self.phi[index])

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
