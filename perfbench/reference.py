"""Plain-NumPy reference for the correlations spinpair prints.

Nothing here imports spinpair.  A pair state (s, M) along the axis a is the
standard-form state rotated by R(a) (x) R(a), with R(a) the spin-1/2
rotation that takes the z axis to a.  A two-outcome observable along n with
values (r+, r-) is ((r+ + r-)/2) I + ((r+ - r-)/2) n.sigma.  Every function
takes arrays of angles and works on a whole batch at once.
"""

from __future__ import annotations

import numpy as np

_H = np.sqrt(0.5)

# Standard-form states in the (++, +-, -+, --) product basis, first spin major.
STANDARD_STATES = {
    (1, 1): np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    (1, 0): np.array([0.0, _H, _H, 0.0], dtype=complex),
    (1, -1): np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
    (0, 0): np.array([0.0, _H, -_H, 0.0], dtype=complex),
}

_EYE = np.eye(2, dtype=complex)
_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def unit_vectors(theta, phi) -> np.ndarray:
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def rotations(theta, phi) -> np.ndarray:
    """exp(-i phi sz/2) exp(-i theta sy/2), shape (..., 2, 2)."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    return np.stack([np.stack([em * c, -em * s], -1), np.stack([ep * s, ep * c], -1)], -2)


def pair_states(s: int, M: int, theta, phi) -> np.ndarray:
    """The state (s, M) along (theta, phi), shape (..., 4)."""
    r = rotations(theta, phi)
    rr = np.einsum("...ij,...kl->...ikjl", r, r).reshape(r.shape[:-2] + (4, 4))
    return rr @ STANDARD_STATES[(s, M)]


def observables(theta, phi, r_plus, r_minus) -> np.ndarray:
    n = unit_vectors(theta, phi)
    r_plus, r_minus = np.asarray(r_plus, float), np.asarray(r_minus, float)
    n_sigma = np.einsum("...k,kij->...ij", n, _PAULI)
    mean = ((r_plus + r_minus) / 2.0)[..., None, None]
    half_gap = ((r_plus - r_minus) / 2.0)[..., None, None]
    return mean * _EYE + half_gap * n_sigma


def _pair_form(psi: np.ndarray, o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    batch = np.broadcast_shapes(o1.shape[:-2], o2.shape[:-2])
    op = np.einsum("...ij,...kl->...ikjl", o1, o2).reshape(batch + (4, 4))
    return np.einsum("...i,...ij,...j->...", psi.conj(), op, psi).real


def expectations(psi, c1, c2, r1, r2) -> np.ndarray:
    """<psi| O(c1, r1) (x) O(c2, r2) |psi> for batched (theta, phi) and (r+, r-)."""
    return _pair_form(psi, observables(*c1, *r1), observables(*c2, *r2))


def probabilities(psi, c1, c2) -> np.ndarray:
    """Joint outcome probabilities in (++, +-, -+, --) order, shape (..., 4)."""
    p1 = (observables(*c1, 1.0, 0.0), observables(*c1, 0.0, 1.0))
    p2 = (observables(*c2, 1.0, 0.0), observables(*c2, 0.0, 1.0))
    return np.stack([_pair_form(psi, a, b) for a in p1 for b in p2], axis=-1)
