"""Assembly of coupled-pair vector states.

A compound state (s, M) referred to the axis ``a`` is a chi-weighted sum of
four Kronecker products, one per pair of projection labels:

    tensor = sum over (m1, m2) of chi(label; m1, m2) * eta1(m1) (x) eta2(m2)

where eta1 is taken along the first intermediate direction d and eta2 along
the second one f.  Components follow B_INDEX_ORDER with the first subsystem
major.  ``_tensor`` computes that sum; ``assemble_state`` packages it with
its terms, and the matrix route of ``expectation`` reads ``_tensor`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .directions import Direction, Z_AXIS
from .kernels import B_INDEX_ORDER, CompoundLabel, _chi_row, _eta_rows


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


def _tensor(
    label: CompoundLabel, d: Direction, f: Direction
) -> tuple[np.ndarray, list[complex], np.ndarray, np.ndarray]:
    """The tensor of the state (s, M) in the (d, f) basis, with its parts.

    Returns (tensor, coefficients, eta1, eta2): the coefficients are the
    ``chi`` values over B_INDEX_ORDER and row m of eta1 (eta2) is
    ``eta_from_z(m, d)`` (``eta_from_z(m, f)``).  The tensor is the sum of
    ``coefficient_k * np.kron(eta1[m1_k], eta2[m2_k])`` term by term in
    B_INDEX_ORDER.
    """
    coefficients = _chi_row(label)
    eta1 = np.array(_eta_rows(d))
    eta2 = np.array(_eta_rows(f))
    # products[k] = coefficient_k * kron(eta1_k, eta2_k): B_INDEX_ORDER and
    # the kron components both run first index major, so one broadcast outer
    # product, reshaped, lines the terms up in order.
    outer = (eta1[:, None, :, None] * eta2[None, :, None, :]).reshape(4, 4)
    products = np.array(coefficients)[:, None] * outer
    # Rows added in order onto zeros (initial=0j), so the tensor is the
    # docstring's sum bit for bit, signs of zero components included.
    return products.sum(axis=0, initial=0j), coefficients, eta1, eta2


def assemble_state(label: CompoundLabel, d: Direction, f: Direction) -> StateAssembly:
    """Build the state (s, M) along ``label.axis`` in the (d, f) product basis.

    The coefficients are exactly the ``chi`` outputs, the per-subsystem
    vectors exactly the ``eta_from_z`` outputs; no rescaling happens here.
    ``terms`` and ``tensor`` are read-only and hold what ``_tensor`` builds,
    the tensor being ``sum of coefficient * np.kron(eta1, eta2)``.
    """
    tensor, coefficients, eta1, eta2 = _tensor(label, d, f)
    eta1, eta2 = _readonly(eta1), _readonly(eta2)
    terms = tuple(
        StateTerm(c, eta1[m1.index], eta2[m2.index])
        for c, (m1, m2) in zip(coefficients, B_INDEX_ORDER)
    )
    return StateAssembly(label, d, f, terms, _readonly(tensor))


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
