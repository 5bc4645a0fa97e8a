"""Closed-form probability-amplitude kernels.

Everything in this module is a transition table between projection labels.
``xi_half`` is the spin-1/2 direction-change matrix that the rest of the
package is built from; row m of ``xi_half(Z_AXIS, f)`` is the z-basis eta
vector of projection m.  ``zeta_spin1`` is the spin-1 analogue used for the
total spin of a coupled pair, ``clebsch_gordan_half_half`` couples two
spin-1/2 projections, and ``chi`` composes the last two into coupling
coefficients referred to an arbitrary quantization axis.

All functions are pure; return values are plain numbers or fresh numpy arrays.
The formulas of ``xi_half`` and ``zeta_spin1`` live in the private
``_xi_entries`` and ``_zeta_entries``, which return their entries as a list;
the public kernels are arrays over those lists, and the matrix route of the
package (``states._tensor`` and ``operators._r_entries``) reads the entries
directly, so one point of it builds no array.  What depends on one label or
direction alone is kept with it from the first read on, by ``_keep`` alone: a
``CompoundLabel`` keeps its ``_chi_row``, which ``states`` reads, and a
direction, point or batch, keeps the entries of ``xi_half(Z_AXIS, d)``
(``_eta_rows``, which ``_tensor`` reads too), that matrix as a read-only array,
whose copies ``assemble_state`` reads, and the read-only arrays of
``zeta_spin1(M, d)`` for all three M.  So each formula runs once per label or
direction however many pairs or amplitudes read it, and the two public kernels
return a copy of a kept array.  ``Z_AXIS`` keeps nothing, which ``_keep`` sees
to.  Every kernel runs unchanged on one point or on a batch (a ``Directions``,
or a label whose axis is one): the entries are then Complexes, the arrays have
the batch axes first (see ``batch``).  A batch may also mix the triplet
labels: a ``_TripletBatch`` carries an int array M, one projection per point,
which broadcasts against its axis.  ``zeta_spin1`` takes such an M and picks
each point's row of the three arrays the axis keeps, and ``_chi_row`` picks
each point's entries of the three ``_zeta_entries`` rows; the label keeps its
row as a ``CompoundLabel`` does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .batch import Complexes, readonly, stack, unstack
from .directions import Direction, Z_AXIS

SQRT_HALF = math.sqrt(0.5)


class SpinHalfLabel(IntEnum):
    """Spin projection +1/2 (PLUS) or -1/2 (MINUS) along a stated direction.

    A label is its own row/column index, so the amplitude matrices are
    always ordered (plus, minus).
    """

    PLUS = 0
    MINUS = 1


PLUS = SpinHalfLabel.PLUS
MINUS = SpinHalfLabel.MINUS

# Fixed ordering of the four joint projection labels of the pair; the first
# subsystem index is major.  Tensors, probability quadruples and coefficient
# lists all follow this order.
B_INDEX_ORDER: tuple[tuple[SpinHalfLabel, SpinHalfLabel], ...] = (
    (PLUS, PLUS),
    (PLUS, MINUS),
    (MINUS, PLUS),
    (MINUS, MINUS),
)


@dataclass(frozen=True)
class CompoundLabel:
    """Total-spin state label (s, M) referred to the quantization axis.

    It keeps its ``_chi_row`` from the first read on, which the matrix route
    makes and the oracle route never does.
    """

    s: int
    M: int
    axis: Direction

    def __post_init__(self) -> None:
        for name in ("s", "M"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.s not in (0, 1):
            raise ValueError(f"total spin s must be 0 or 1, got {self.s!r}")
        if self.M not in range(-self.s, self.s + 1):
            raise ValueError(f"M must satisfy |M| <= s, got M={self.M!r} for s={self.s}")

    @property
    def _coupling_row(self) -> tuple:
        """``_chi_row(self)``, evaluated on first use and kept with the label."""
        try:
            return self._row
        except AttributeError:
            return _keep(self, "_row", _chi_row(self))


class _TripletBatch:
    """The triplet labels (1, M) of a batch, M an int array of +1, 0 and -1
    that broadcasts against the axis: one label per point, which the public
    ``CompoundLabel`` does not take.  It keeps its ``_chi_row`` as that does.
    """

    s = 1

    def __init__(self, M: np.ndarray, axis: Direction) -> None:
        self.M = _projections(M)
        self.axis = axis

    _coupling_row = CompoundLabel._coupling_row


def _xi_entries(initial, final) -> list:
    """The four entries of ``xi_half(initial, final)``, row major: the
    formulas themselves, for callers that would only unpack an array."""
    # a batch's arithmetic if either direction is one
    cos, sin, rect, _ = (final if type(initial) is Direction else initial)._arithmetic
    ci = cos(initial.theta / 2.0)
    si = sin(initial.theta / 2.0)
    cf = cos(final.theta / 2.0)
    sf = sin(final.theta / 2.0)
    w = rect(1.0, initial.phi - final.phi)  # exp(1j * (phi_i - phi_f)), bit for bit
    # w * si * sf is (w * si) * sf, so the shared products keep every bit
    wsi = w * si
    wci = w * ci
    return [ci * cf + wsi * sf, -ci * sf + wsi * cf, -si * cf + wci * sf, si * sf + wci * cf]


def _keep(obj, name: str, value):
    """``value``, kept on the label or direction ``obj`` as ``name`` unless
    ``obj`` is ``Z_AXIS``, which keeps nothing."""
    if obj is not Z_AXIS:
        # object.__setattr__, as Direction sets its angles; writing to
        # __dict__ (functools.cached_property) would make every later
        # attribute read of a label about twice as slow
        object.__setattr__(obj, name, value)
    return value


def _eta_rows(d) -> tuple:
    """The entries of ``xi_half(Z_AXIS, d)``, kept on ``d`` (see ``Direction``)."""
    try:
        return d._eta
    except AttributeError:
        return _keep(d, "_eta", tuple(_xi_entries(Z_AXIS, d)))


def xi_half(initial: Direction, final: Direction) -> np.ndarray:
    """Spin-1/2 direction-change amplitude matrix.

    Entry (p, u) is the amplitude for finding projection u along ``final``
    given projection p along ``initial``; rows and columns are ordered
    (plus, minus).  Explicitly, with half-angles c = cos(theta/2),
    s = sin(theta/2) and the phase w = exp(i (phi_i - phi_f)),

        (+,+)  c_i c_f + w s_i s_f
        (+,-) -c_i s_f + w s_i c_f
        (-,+) -s_i c_f + w c_i s_f
        (-,-)  s_i s_f + w c_i c_f

    The matrix is unitary, swapping the two directions conjugate-transposes
    it, and chaining through any intermediate direction composes as a matrix
    product.

    Parameters
    ----------
    initial, final : Direction
        Direction along which the projection is known, then measured.

    Returns
    -------
    numpy.ndarray
        Complex 2x2 matrix, one per point of a batch.
    """
    if initial is not Z_AXIS:
        return stack(_xi_entries(initial, final), (2, 2))
    try:  # a copy of the matrix ``final`` keeps
        return final._xi.copy()
    except AttributeError:
        return _keep(final, "_xi", readonly(stack(_eta_rows(final), (2, 2)))).copy()


def _zeta_entries(M: int, a) -> list:
    """The three entries of ``zeta_spin1(M, a)``."""
    cos, sin, rect, zero = a._arithmetic
    th = a.theta
    s = sin(th)
    ep = rect(1.0, a.phi)  # exp(1j * a.phi), bit for bit
    em = ep.conjugate()  # == exp(-1j * a.phi), bit for bit
    if M == 1:
        c, h = cos(th / 2.0), sin(th / 2.0)
        return [c * c * em, zero + SQRT_HALF * s, h * h * ep]
    if M == 0:
        return [-SQRT_HALF * s * em, zero + cos(th), SQRT_HALF * s * ep]
    if M == -1:
        c, h = cos(th / 2.0), sin(th / 2.0)
        return [-(h * h) * em, zero + SQRT_HALF * s, -(c * c) * ep]
    raise _m_error(M)


# The row of each spin-1 projection M, in the order M = +1, 0, -1.
_M_ROW = {1: 0, 0: 1, -1: 2}


def _m_error(M) -> ValueError:
    return ValueError(f"spin-1 projection M must be +1, 0 or -1, got {M!r}")


def _projections(M) -> np.ndarray:
    """``M``, an int array of spin-1 projections, one per point; anything else
    raises ValueError."""
    if not (isinstance(M, np.ndarray) and M.dtype.kind == "i" and (abs(M) <= 1).all()):
        raise _m_error(M)
    return M


def _zeta_rows(a) -> tuple:
    """The read-only arrays of ``zeta_spin1(M, a)`` for M = +1, 0, -1, kept on ``a``."""
    try:
        return a._zeta
    except AttributeError:
        rows = tuple(readonly(stack(_zeta_entries(m, a), (3,))) for m in (1, 0, -1))
        return _keep(a, "_zeta", rows)


def zeta_spin1(M: int, a: Direction) -> np.ndarray:
    """Spin-1 direction-change amplitudes from projection M along ``a``.

    Returns the three amplitudes to the z-axis projections, ordered
    M_l = (+1, 0, -1).  Each triple has unit norm and the three triples for
    M = +1, 0, -1 form a unitary 3x3 matrix.  M may also be an int array, one
    projection per point of a batch, broadcast against ``a``'s batch axes.
    """
    try:
        row = _M_ROW[M]
    except KeyError:
        raise _m_error(M) from None
    except TypeError:  # unhashable: an array, each point's row of the three
        M = _projections(M)[..., None]
        plus, zero, minus = _zeta_rows(a)
        return np.where(M == 1, plus, np.where(M == 0, zero, minus))
    return _zeta_rows(a)[row].copy()  # a copy of M's row of those ``a`` keeps


# Coupling coefficients of the four total-spin labels (s, M), one row per
# (s, M) over B_INDEX_ORDER, and the same values by (s, M, m1, m2).
_CG_ROWS = {
    (1, 1): (1.0, 0.0, 0.0, 0.0),
    (1, 0): (0.0, SQRT_HALF, SQRT_HALF, 0.0),
    (1, -1): (0.0, 0.0, 0.0, 1.0),
    (0, 0): (0.0, SQRT_HALF, -SQRT_HALF, 0.0),
}
_CG = {
    (s, M, m1, m2): value
    for (s, M), row in _CG_ROWS.items()
    for (m1, m2), value in zip(B_INDEX_ORDER, row)
}


def clebsch_gordan_half_half(
    s: int, M: int, m1: SpinHalfLabel, m2: SpinHalfLabel
) -> float:
    """Coupling coefficient of two spin-1/2 projections to total spin (s, M).

    Zero whenever m1 + m2 != M.  The nonzero values are 1 for the stretched
    triplet states, 1/sqrt(2) for both orderings feeding (1, 0), and
    +-1/sqrt(2) for the singlet, the minus sign on the (minus, plus) slot.
    Labels compare by value, so 0.0 and 1.0 stand for PLUS and MINUS.  A
    label outside (s, M) in {(1, 1), (1, 0), (1, -1), (0, 0)} or m1, m2 in
    {PLUS, MINUS}, an unhashable one too, raises ValueError.
    """
    try:
        return _CG[s, M, m1, m2]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        if (s, M) not in tuple(_CG_ROWS):  # compared by ==, hashing neither
            raise ValueError(f"invalid total-spin labels s={s!r}, M={M!r}") from None
        raise ValueError(f"invalid projection labels m1={m1!r}, m2={m2!r}") from None


def chi(label: CompoundLabel, m1: SpinHalfLabel, m2: SpinHalfLabel) -> complex:
    """Coupling coefficient of the pair state (s, M) along ``label.axis``.

    For s = 1 this chains the spin-1 direction change from the axis down to
    the z basis through all three intermediate projections:

        chi = sum over M_l of zeta_spin1(M, axis)[M_l] * CG(1, M_l; m1, m2)

    For s = 0 the state carries no direction dependence and the bare
    coupling coefficient is returned.  The four values for the joint labels
    in ``B_INDEX_ORDER`` always have unit sum of squared moduli.
    """
    if label.s == 0:
        return complex(clebsch_gordan_half_half(0, 0, m1, m2))
    zp, z0, zm = unstack(zeta_spin1(label.M, label.axis), 1)
    # the sum's terms onto 0j in M_l order (+1, 0, -1)
    return (
        0j
        + zp * clebsch_gordan_half_half(1, 1, m1, m2)
        + z0 * clebsch_gordan_half_half(1, 0, m1, m2)
        + zm * clebsch_gordan_half_half(1, -1, m1, m2)
    )


def _chi_row(label: CompoundLabel) -> tuple:
    """``chi(label, m1, m2)`` over B_INDEX_ORDER, from the table's rows and
    one evaluation of the spin-1 amplitudes; for a ``_TripletBatch``, each
    point's entries of the three rows."""
    if label.s == 0:
        return tuple(complex(value) for value in _CG_ROWS[0, 0])
    if isinstance(label, _TripletBatch):
        plus, zero = label.M == 1, label.M == 0
        entries = zip(*(_zeta_entries(m, label.axis) for m in (1, 0, -1)))
        zp, z0, zm = (
            Complexes(
                np.where(plus, p.real, np.where(zero, z.real, m.real)),
                np.where(plus, p.imag, np.where(zero, z.imag, m.imag)),
            )
            for p, z, m in entries
        )
    else:
        zp, z0, zm = _zeta_entries(label.M, label.axis)
    # chi's s = 1 sum on the same table values, so each entry is == to
    # chi(label, m1, m2).
    return tuple(
        0j + zp * cg_p + z0 * cg_0 + zm * cg_m
        for cg_p, cg_0, cg_m in zip(_CG_ROWS[1, 1], _CG_ROWS[1, 0], _CG_ROWS[1, -1])
    )
