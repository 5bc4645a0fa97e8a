"""Assembly of coupled-pair vector states.

A compound state (s, M) referred to the axis ``a`` is a chi-weighted sum of
four Kronecker products, one per pair of projection labels:

    tensor = sum over (m1, m2) of chi(label; m1, m2) * eta1(m1) (x) eta2(m2)

where eta1 is taken along the first intermediate direction d and eta2 along
the second one f.  Components follow B_INDEX_ORDER with the first subsystem
major.  ``_tensor`` computes that sum on Python complex numbers, or on the
Complexes of a batch, which round alike on every host (NumPy's SIMD loops
may fuse a multiply and an add, so the last bit of a NumPy product can
depend on the CPU).  ``assemble_state`` packages the sum with its terms as
arrays, and the matrix route of ``expectation`` reads ``_tensor``'s lists
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batch import Complexes, stack
from .directions import Direction, Z_AXIS
from .kernels import B_INDEX_ORDER, CompoundLabel, _chi_row, _xi_entries


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


def _tensor(label: CompoundLabel, d, f) -> tuple[list, list, list, list]:
    """The tensor of the state (s, M) in the (d, f) basis, with its parts.

    Returns (tensor, coefficients, eta1, eta2) as lists of Python complex
    numbers, or of a batch's values: the coefficients are the ``chi`` values
    over B_INDEX_ORDER, and eta1 (eta2) holds the entries of ``xi_half(Z_AXIS, d)``
    (``xi_half(Z_AXIS, f)``) row major, row m being the eta vector of
    projection m.  Component 2 i + j of the tensor is

        sum over k of c_k * (eta1[m1_k][i] * eta2[m2_k][j])

    with (m1_k, m2_k) the k-th label of B_INDEX_ORDER, the terms added onto
    0j in that order.
    """
    c0, c1, c2, c3 = coefficients = _chi_row(label)
    eta1 = _xi_entries(Z_AXIS, d)
    eta2 = _xi_entries(Z_AXIS, f)
    # a_i, b_i: component i of the plus and the minus row of eta1; p_j, q_j
    # likewise for eta2, so each component's terms run (++, +-, -+, --).
    a0, a1, b0, b1 = eta1
    p0, p1, q0, q1 = eta2
    tensor = [
        0j + c0 * (a0 * p0) + c1 * (a0 * q0) + c2 * (b0 * p0) + c3 * (b0 * q0),
        0j + c0 * (a0 * p1) + c1 * (a0 * q1) + c2 * (b0 * p1) + c3 * (b0 * q1),
        0j + c0 * (a1 * p0) + c1 * (a1 * q0) + c2 * (b1 * p0) + c3 * (b1 * q0),
        0j + c0 * (a1 * p1) + c1 * (a1 * q1) + c2 * (b1 * p1) + c3 * (b1 * q1),
    ]
    return tensor, coefficients, eta1, eta2


def assemble_state(label: CompoundLabel, d: Direction, f: Direction) -> StateAssembly:
    """Build the state (s, M) along ``label.axis`` in the (d, f) product basis.

    The coefficients are exactly the ``chi`` outputs, the per-subsystem
    vectors exactly the rows of ``xi_half(Z_AXIS, d)`` and
    ``xi_half(Z_AXIS, f)``; no rescaling happens here.
    ``terms`` and ``tensor`` are read-only arrays over what ``_tensor``
    computes.  On a batch the arrays have the batch axes first, and a
    coefficient that depends on the point is an array over them.
    """
    tensor, coefficients, eta1, eta2 = _tensor(label, d, f)
    eta1 = _readonly(stack(eta1, (2, 2)))
    eta2 = _readonly(stack(eta2, (2, 2)))
    terms = tuple(
        StateTerm(c.array() if isinstance(c, Complexes) else c, eta1[..., m1, :], eta2[..., m2, :])
        for c, (m1, m2) in zip(coefficients, B_INDEX_ORDER)
    )
    return StateAssembly(label, d, f, terms, _readonly(stack(tensor, (4,))))


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
