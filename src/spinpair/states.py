"""Assembly of coupled-pair vector states.

A compound state (s, M) referred to the axis ``a`` is a chi-weighted sum of
four Kronecker products, one per pair of projection labels:

    tensor = sum over (m1, m2) of chi(label; m1, m2) * eta1(m1) (x) eta2(m2)

where eta1 is taken along the first intermediate direction d and eta2 along
the second one f.  Components follow B_INDEX_ORDER with the first subsystem
major.  ``_tensor`` computes that sum as eta1^T C eta2, C the 2x2 matrix of
the chi values, on Python complex numbers, or on the Complexes of a batch,
which round alike on every host (NumPy's SIMD loops may fuse a multiply and
an add, so the last bit of a NumPy product can depend on the CPU).
``assemble_state`` packages the tensor with its terms, the label's chi row
and the ``xi_half(Z_AXIS, .)`` matrices the directions keep, and the
matrix route of ``expectation`` reads ``_tensor``'s list alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batch import Complexes, readonly, stack
from .directions import Direction, Z_AXIS
from .kernels import B_INDEX_ORDER, CompoundLabel, _eta_rows, xi_half


@dataclass(frozen=True, eq=False)
class StateTerm:
    """One summand of an assembled state: coefficient times eta1 (x) eta2."""

    coefficient: complex
    eta1: np.ndarray
    eta2: np.ndarray


@dataclass(frozen=True, eq=False)
class StateAssembly:
    """A compound state together with the terms it was assembled from.

    ``terms`` holds one StateTerm per joint label in B_INDEX_ORDER and
    ``tensor`` is their sum, a unit-norm complex 4-vector.
    """

    label: CompoundLabel
    intermediate1: Direction
    intermediate2: Direction
    terms: tuple[StateTerm, ...]
    tensor: np.ndarray


def _tensor(label: CompoundLabel, d, f) -> list:
    """The tensor of the state (s, M) in the (d, f) basis.

    Returns its four components, Python complex numbers or a batch's values,
    from what the label and the directions keep: the coefficients are the
    ``chi`` values over B_INDEX_ORDER (the label's row), and eta1 (eta2)
    holds the entries of ``xi_half(Z_AXIS, d)`` (``xi_half(Z_AXIS, f)``) row
    major, row m being the eta vector of projection m.  With the
    coefficients as the 2x2 matrix C (row m1, column m2), the tensor is
    eta1^T C eta2: first u_m1 = sum over m2 of C[m1][m2] * eta2[m2], then
    component 2 i + j is

        eta1[PLUS][i] * u_PLUS[j] + eta1[MINUS][i] * u_MINUS[j]

    added onto 0j, so that no part is a negative zero.  That is the sum over
    (m1, m2) of chi * eta1[m1][i] * eta2[m2][j] in 28 complex operations
    rather than 48.
    """
    c0, c1, c2, c3 = label._coupling_row
    # a_i, b_i: component i of the plus and the minus row of eta1; p_j, q_j
    # likewise for eta2; u_j, v_j: component j of u_PLUS and u_MINUS.
    a0, a1, b0, b1 = _eta_rows(d)
    p0, p1, q0, q1 = _eta_rows(f)
    u0, u1 = c0 * p0 + c1 * q0, c0 * p1 + c1 * q1
    v0, v1 = c2 * p0 + c3 * q0, c2 * p1 + c3 * q1
    return [
        0j + a0 * u0 + b0 * v0,
        0j + a0 * u1 + b0 * v1,
        0j + a1 * u0 + b1 * v0,
        0j + a1 * u1 + b1 * v1,
    ]


def assemble_state(label: CompoundLabel, d: Direction, f: Direction) -> StateAssembly:
    """Build the state (s, M) along ``label.axis`` in the (d, f) product basis.

    The coefficients are exactly the ``chi`` outputs (the label's kept row),
    the per-subsystem vectors exactly the rows of ``xi_half(Z_AXIS, d)`` and
    ``xi_half(Z_AXIS, f)``, read-only copies of what the directions keep; no
    rescaling happens here.  ``tensor`` is a read-only array over what
    ``_tensor`` computes.  On a batch the arrays have the batch axes first,
    and a coefficient that depends on the point is an array over them.
    """
    eta1 = readonly(xi_half(Z_AXIS, d))
    eta2 = readonly(xi_half(Z_AXIS, f))
    coefficients = [stack([c], ()) if isinstance(c, Complexes) else c for c in label._coupling_row]
    terms = tuple(
        StateTerm(c, eta1[..., m1, :], eta2[..., m2, :])
        for c, (m1, m2) in zip(coefficients, B_INDEX_ORDER)
    )
    return StateAssembly(label, d, f, terms, readonly(stack(_tensor(label, d, f), (4,))))


def reduce_axis_aligned(
    label: CompoundLabel, d: Direction, f: Direction
) -> StateAssembly:
    """Assemble a state whose axis is the z direction.

    With the axis at (0, 0) the chi coefficients collapse to the constant
    coupling pattern (single terms for M = +-1, symmetric and antisymmetric
    1/sqrt(2) combinations for (1, 0) and (0, 0)), so the assembly reduces
    to fixed combinations of eta products.  Raises ValueError when the
    label's axis is not exactly (0, 0): an axis (0, phi) gives the same state
    times the phase exp(-1j*M*phi) (see Direction), so it is rejected.
    """
    if label.axis != Z_AXIS:
        raise ValueError(
            f"axis-aligned reduction requires axis (0, 0), got {label.axis}"
        )
    return assemble_state(label, d, f)


def gram_matrix(states: Sequence[StateAssembly]) -> np.ndarray:
    """Matrix of pairwise inner products, conjugate-linear in the first slot.

    All states must share the quantization axis and both intermediate
    directions, compared as exact angles: at a pole, axes that differ in phi
    give states that differ by a phase (see Direction).  For the four states
    (1, +1), (1, 0), (1, -1), (0, 0) on a common axis the result is the 4x4
    identity to rounding.
    """
    if not states:
        raise ValueError("gram_matrix needs at least one state")
    first = states[0]
    for st in states[1:]:
        if (
            st.label.axis != first.label.axis
            or st.intermediate1 != first.intermediate1
            or st.intermediate2 != first.intermediate2
        ):
            raise ValueError(
                "all states must share the axis and both intermediate directions"
            )
    tensors = np.array([st.tensor for st in states])
    return tensors.conj() @ tensors.T
