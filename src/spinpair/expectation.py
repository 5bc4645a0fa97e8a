"""Joint outcome amplitudes, probabilities and expectation values.

Two independent routes to the same expectation value live here.  The oracle
route never touches a matrix: it composes the joint amplitude

    Psi(u, v) = sum over (m1, m2) of chi(label; m1, m2)
                * xi_half(z, c1)[m1, u] * xi_half(z, c2)[m2, v]

squares it into probabilities and averages the outcome value products.  The
matrix route sandwiches the two observable blocks, one acting on each
subsystem index, between assembled state tensors.  They agree identically,
and the matrix route is additionally independent of the intermediate
directions (d, f) it is evaluated in; ``verify_basis_invariance`` measures
both facts.

``amplitude_psi``, ``outcome_probabilities`` and the bodies of the two
routes, ``_oracle_route`` and ``_matrix_route``, run unchanged on one point
or on a batch (see ``batch``); ``expectation_oracle`` and
``expectation_matrix`` take one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .batch import stack, unstack
from .directions import Direction, Z_AXIS
from .kernels import B_INDEX_ORDER, MINUS, PLUS, CompoundLabel, SpinHalfLabel, chi, xi_half
from .operators import (
    MeasurementSpec,
    SPIN_PROJECTION_VALUES,
    operator_pair,
)
from .states import _tensor

# Largest imaginary part tolerated when a mathematically real quadratic form
# is evaluated in floating point, for outcome values of magnitude up to 1.
IMAG_TOLERANCE = 1e-12

_PROB_SUM_TOLERANCE = 1e-12


class InternalConsistencyError(RuntimeError):
    """A computed quantity violated an exact identity beyond tolerance."""


@dataclass(frozen=True)
class ExpectationReport:
    """Dual-route expectation value plus the residuals tying the routes together.

    ``residual`` is the gap between the matrix and oracle routes at the
    first evaluation point; ``basis_invariance_residual`` is the spread of
    the matrix route over all sampled (d, f) pairs.
    """

    value_matrix_path: float
    value_oracle_path: float
    probabilities: tuple[float, float, float, float]
    residual: float
    basis_invariance_residual: float

    def __post_init__(self) -> None:
        p = self.probabilities
        if len(p) != 4:
            raise ValueError("expected four outcome probabilities")
        if any(v < 0.0 or v > 1.0 + _PROB_SUM_TOLERANCE for v in p):
            raise ValueError(f"probabilities out of range: {p}")
        if abs(sum(p) - 1.0) > _PROB_SUM_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1, got {sum(p)!r}")


def amplitude_psi(
    label: CompoundLabel,
    c1: Direction,
    c2: Direction,
    u: SpinHalfLabel,
    v: SpinHalfLabel,
) -> complex:
    """Joint amplitude for outcomes (u, v) along (c1, c2)."""
    x1 = unstack(xi_half(Z_AXIS, c1), 2)
    x2 = unstack(xi_half(Z_AXIS, c2), 2)
    # column u of x1 and column v of x2, rows (plus, minus) = (m1, m2) labels
    a_p, a_m = x1[0][u], x1[1][u]
    b_p, b_m = x2[0][v], x2[1][v]
    # the terms over (m1, m2) in B_INDEX_ORDER, each onto 0j in turn
    return (
        0j
        + chi(label, PLUS, PLUS) * a_p * b_p
        + chi(label, PLUS, MINUS) * a_p * b_m
        + chi(label, MINUS, PLUS) * a_m * b_p
        + chi(label, MINUS, MINUS) * a_m * b_m
    )


def outcome_probabilities(
    label: CompoundLabel, c1: Direction, c2: Direction
) -> np.ndarray:
    """The four joint outcome probabilities |Psi(u, v)|^2 in B_INDEX_ORDER.

    Nonnegative with unit sum to rounding; on a batch, along the last axis.
    """
    moduli = [abs(amplitude_psi(label, c1, c2, u, v)) for u, v in B_INDEX_ORDER]
    return stack([m * m for m in moduli], (4,))


def expectation_oracle(label: CompoundLabel, spec: MeasurementSpec) -> float:
    """Expectation value as the probability-weighted sum of value products."""
    return _oracle_route(label, spec)


def _oracle_route(label: CompoundLabel, spec: MeasurementSpec):
    """``expectation_oracle``'s value, on one point or a batch."""
    p = unstack(outcome_probabilities(label, spec.c1, spec.c2), 1)
    r1p, r1m = spec.values1.r_plus, spec.values1.r_minus
    r2p, r2m = spec.values2.r_plus, spec.values2.r_minus
    # p[k] * r1(u) * r2(v) over (u, v) in B_INDEX_ORDER, each onto 0.0 in turn
    return 0.0 + p[0] * r1p * r2p + p[1] * r1p * r2m + p[2] * r1m * r2p + p[3] * r1m * r2m


def expectation_matrix(
    label: CompoundLabel,
    spec: MeasurementSpec,
    d: Direction = Z_AXIS,
    f: Direction = Z_AXIS,
) -> float:
    """Expectation value as a quadratic form in the (d, f) product basis.

    The form is mathematically real; if rounding leaves an imaginary part
    above IMAG_TOLERANCE * max(1, max|r1| * max|r2|) an
    InternalConsistencyError is raised.
    """
    return _matrix_route(label, spec, d, f)


def _matrix_route(label: CompoundLabel, spec: MeasurementSpec, d, f):
    """``expectation_matrix``'s value, on one point or a batch; the imaginary
    part is checked at every point."""
    # The tensor as a 2x2 matrix Psi[i][j] (first subsystem index major), on
    # which kron(r1, r2) acts as r1 @ Psi @ r2.T; the value is
    # vdot(Psi, r1 @ Psi @ r2.T), on the values _tensor gives.
    p00, p01, p10, p11 = _tensor(label, d, f)[0]
    r1, r2 = operator_pair(spec, d, f)
    (a00, a01), (a10, a11) = unstack(r1, 2)
    (b00, b01), (b10, b11) = unstack(r2, 2)
    m00, m01 = a00 * p00 + a01 * p10, a00 * p01 + a01 * p11  # r1 @ Psi
    m10, m11 = a10 * p00 + a11 * p10, a10 * p01 + a11 * p11
    value = (
        p00.conjugate() * (m00 * b00 + m01 * b01)
        + p01.conjugate() * (m00 * b10 + m01 * b11)
        + p10.conjugate() * (m10 * b00 + m11 * b01)
        + p11.conjugate() * (m10 * b10 + m11 * b11)
    )
    # Rounding leaves an imaginary part that grows with the outcome values:
    # the bound is IMAG_TOLERANCE * max(1, largest value product), and the
    # product is formed only once the residue passes IMAG_TOLERANCE.
    imag = abs(value.imag)
    over = imag > IMAG_TOLERANCE  # a bool, or one per point of a batch
    if over is not False and np.any(
        over & (imag > IMAG_TOLERANCE * (spec.values1.largest * spec.values2.largest))
    ):
        worst = value.imag if over is True else float(np.max(imag))
        raise InternalConsistencyError(f"expectation value has imaginary part {worst!r}")
    return value.real


def verify_basis_invariance(
    label: CompoundLabel,
    spec: MeasurementSpec,
    grid: Iterable[tuple[Direction, Direction]],
) -> ExpectationReport:
    """Evaluate both routes over a grid of (d, f) pairs and report residuals.

    The value fields come from the first grid point; the invariance residual
    is the max-min spread of the matrix route over the whole grid (zero for
    a single-point grid, NaN if the route gives NaN at any point).
    """
    pairs = list(grid)
    if not pairs:
        raise ValueError("grid of (d, f) pairs must be nonempty")
    values = [expectation_matrix(label, spec, d, f) for d, f in pairs]
    # max and min skip a NaN unless it comes first, so look for one
    spread = math.nan if any(map(math.isnan, values)) else max(values) - min(values)
    oracle = expectation_oracle(label, spec)
    probs = outcome_probabilities(label, spec.c1, spec.c2)
    return ExpectationReport(
        value_matrix_path=values[0],
        value_oracle_path=oracle,
        probabilities=tuple(probs.tolist()),
        residual=abs(values[0] - oracle),
        basis_invariance_residual=spread,
    )


def singlet_expectation(c1: Direction, c2: Direction) -> float:
    """Spin-projection correlation of the singlet, equal to -cos(angle between)."""
    label = CompoundLabel(0, 0, Z_AXIS)
    spec = MeasurementSpec(c1, c2, SPIN_PROJECTION_VALUES, SPIN_PROJECTION_VALUES)
    return expectation_oracle(label, spec)


def chsh_value(a: Direction, a_prime: Direction, b: Direction, b_prime: Direction) -> float:
    """CHSH combination E(a,b) + E(a,b') + E(a',b) - E(a',b') for the singlet.

    With E(x, y) = -cos(angle between x and y) the combination is bounded by
    2*sqrt(2) in magnitude, and the bound is attained for coplanar settings
    45 degrees apart.
    """
    return (
        singlet_expectation(a, b)
        + singlet_expectation(a, b_prime)
        + singlet_expectation(a_prime, b)
        - singlet_expectation(a_prime, b_prime)
    )
