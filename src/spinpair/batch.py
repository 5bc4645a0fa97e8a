"""Batches: many points through one call of a formula body.

The formula bodies of the package (``kernels._xi_entries``, ``states._tensor``,
``operators._r_entries``, the two expectation routes, ...) run unchanged on one
point or on a batch.  On one point their complex values are Python complex
numbers.  On a batch they are ``Complexes``: a float64 array of real parts and
one of imaginary parts, whose arithmetic repeats CPython's complex arithmetic
operation for operation, so every point of a batch carries the bits of its own
evaluation.  NumPy's complex loops are not used, because their SIMD variants
may fuse a multiply and an add, which makes the last bit depend on the CPU.
Real values of a batch are float64 arrays, whose +, - and * round alike
everywhere.  The batch axes of a ``Directions`` broadcast like any NumPy
shape.

``stack`` turns the entries a body computes into the array a public function
returns, and ``unstack`` turns such an array back into entries: one point's
array has the core shape, a batch's has the batch axes before it.
``readonly`` refuses writes to an array that is kept or shared: a batch's
angles, and the arrays a direction keeps (see ``kernels``).
"""

from __future__ import annotations

import numpy as np


class Complexes:
    """Complex numbers of a batch as float64 arrays of real and imaginary parts.

    A real operand x counts as x + 0j, as CPython 3.11 converts it, so every
    result has the bits of the Python complex operation on each point.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # NumPy operands defer to the methods below

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        return Complexes(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return Complexes(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other):
        a, b = self.real, self.imag
        if isinstance(other, np.ndarray) and other.dtype.kind == "f":
            c, d = other, 0.0  # the imaginary part of a real array, not allocated
        else:
            c, d = other.real, other.imag
        return Complexes(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__  # each product and sum commutes bit for bit

    def __abs__(self):
        return np.hypot(self.real, self.imag)  # what abs(complex) computes

    def conjugate(self):
        return Complexes(self.real, -self.imag)


def rect(r, phi) -> Complexes:
    """``cmath.rect(r, phi)`` at each point of a batch: r cos(phi) + i r sin(phi)."""
    return Complexes(r * np.cos(phi), r * np.sin(phi))


_POINT_TYPES = (complex, float, int)


def stack(values, shape: tuple[int, ...]) -> np.ndarray:
    """``values``, row major, as an array of ``shape``.

    Python numbers give one point's array.  Values of a batch (Complexes,
    float64 arrays, and numbers the same at every point) give an array with
    the batch axes first; the first value of a batch is never such a number,
    as each body's first value depends on all of its inputs.
    """
    if isinstance(values[0], _POINT_TYPES):
        a = np.array(values)
        return a.reshape(shape) if len(shape) > 1 else a
    if any(isinstance(v, (Complexes, complex)) for v in values):
        parts = [(v.real, v.imag) for v in values]
        batch = np.broadcast(*(p for pair in parts for p in pair)).shape
        out = np.empty(batch + (len(values),), complex)
        for k, (real, imag) in enumerate(parts):
            out.real[..., k], out.imag[..., k] = real, imag
    else:
        out = np.empty(np.broadcast(*values).shape + (len(values),))
        for k, v in enumerate(values):
            out[..., k] = v
    return out.reshape(out.shape[:-1] + shape)


def readonly(a):
    """``a`` with writes refused from now on; a NumPy scalar refuses them already."""
    if isinstance(a, np.ndarray):
        a.setflags(write=False)
    return a


def unstack(a: np.ndarray, ndim: int):
    """The entries of ``a``, whose last ``ndim`` axes are its core, as nested lists.

    One point's array gives Python numbers, as ``a.tolist()``.  A batch gives
    Complexes (float64 arrays, for a real array) over the batch axes.
    """
    if a.ndim == ndim:
        return a.tolist()
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return _entries(parts, a.shape[a.ndim - ndim :], ())


def _entries(parts, core: tuple[int, ...], index: tuple[int, ...]):
    if len(index) < len(core):
        return [_entries(parts, core, index + (k,)) for k in range(core[len(index)])]
    at = (..., *index)
    return Complexes(parts[0][at], parts[1][at]) if len(parts) == 2 else parts[0][at]
