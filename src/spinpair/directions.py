"""Measurement directions on the unit sphere."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """A spatial direction given by polar angles (theta, phi) in radians.

    Out-of-range input is reduced using the spherical identifications
    (theta + 2*pi, phi) ~ (theta, phi) and (-theta, phi) ~ (theta, phi + pi),
    so after construction theta lies in [0, pi] and phi in [0, 2*pi).  The
    reduction is idempotent.  At the poles the azimuth is kept as given; it
    only ever enters the amplitude kernels as a phase.
    """

    theta: float
    phi: float

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
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


Z_AXIS = Direction(0.0, 0.0)


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
