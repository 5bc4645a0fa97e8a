"""Observable operators built from outcome values and amplitude kernels.

A measurement along direction c with real outcome values (r_plus, r_minus)
is represented, in the projection basis of an intermediate direction, by the
2x2 Hermitian matrix

    r[p, p'] = sum over u of conj(X[p, u]) * r(u) * X[p', u]

with X = xi_half(intermediate, c).  In matrix form that is
conj(X) @ diag(r_plus, r_minus) @ X.T; the eigenvalues are exactly the
outcome values.  ``r_matrix`` runs unchanged on one point or on a batch
(see ``batch``), whose outcome values may be float64 arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .batch import stack
from .directions import Direction
from .kernels import _xi_entries


@dataclass(frozen=True)
class OutcomeValues:
    """The two real values a dichotomic measurement can return.

    For a batch, each may be a float64 array over the batch axes.
    """

    r_plus: float
    r_minus: float

    def __post_init__(self) -> None:
        for name in ("r_plus", "r_minus"):
            v = getattr(self, name)
            if isinstance(v, np.ndarray):
                if v.dtype != np.float64 or not np.isfinite(v).all():
                    raise ValueError(f"{name} must hold finite float64 values")
            elif isinstance(v, complex) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            else:
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v!r}")
            # + 0.0 makes -0.0 print as 0.0, as Direction does for its angles
            object.__setattr__(self, name, v + 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.r_plus, self.r_minus])

    @property
    def largest(self) -> float:
        """The larger magnitude of the two values, per point of a batch."""
        big, other = abs(self.r_plus), abs(self.r_minus)
        return np.maximum(big, other) if isinstance(big, np.ndarray) else max(big, other)


SPIN_PROJECTION_VALUES = OutcomeValues(1.0, -1.0)


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement directions and outcome values for both subsystems."""

    c1: Direction
    c2: Direction
    values1: OutcomeValues
    values2: OutcomeValues


def r_matrix(
    intermediate: Direction, measured: Direction, values: OutcomeValues
) -> np.ndarray:
    """Observable block for one subsystem in the ``intermediate`` basis.

    Hermitian 2x2 with eigenvalues {r_plus, r_minus}.  Changing the
    intermediate direction conjugates the block by the corresponding
    direction-change matrix, so expectation values built from it cannot
    depend on that choice.
    """
    # conj(X) @ diag(r) @ X.T on Python complex scalars, which beat NumPy's
    # per-call overhead at this size, or on a batch's Complexes.
    x00, x01, x10, x11 = _xi_entries(intermediate, measured)
    rp, rm = values.r_plus, values.r_minus
    y00, y01 = x00.conjugate() * rp, x01.conjugate() * rm
    y10, y11 = x10.conjugate() * rp, x11.conjugate() * rm
    r00, r01 = y00 * x00 + y01 * x01, y00 * x10 + y01 * x11
    r10, r11 = y10 * x00 + y11 * x01, y10 * x10 + y11 * x11
    return stack([r00, r01, r10, r11], (2, 2))


def operator_pair(
    spec: MeasurementSpec, d: Direction, f: Direction
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks for both subsystems, the first in the d basis, the second in f."""
    return (
        r_matrix(d, spec.c1, spec.values1),
        r_matrix(f, spec.c2, spec.values2),
    )
