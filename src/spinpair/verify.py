"""Self-verification sweeps behind the command line ``verify`` entry point.

Each check draws its samples from a shared seeded generator, in one block
where it can, calls the library once per sample, reduces the residuals over
all samples as arrays and passes when the worst is within tolerance.
Kernel and engine functions are looked up through their modules at call
time, so a harness that swaps one out (to confirm the suite notices) does
not need to reload anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from . import expectation, kernels, operators, states
from .directions import Direction, Z_AXIS, angle_between
from .kernels import B_INDEX_ORDER, MINUS, PLUS, CompoundLabel, SQRT_HALF
from .operators import MeasurementSpec, OutcomeValues


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


# A _draw field is _DIRECTION, drawn as theta on [0, pi) then phi on
# [0, 2 pi), or the (low, high) range of one number.
_DIRECTION = "direction"
_ANGLES = ((0.0, math.pi), (0.0, 2.0 * math.pi))
_VALUE = (-3.0, 3.0)
_LABELS = ((1, 1), (1, 0), (1, -1), (0, 0))


def _draw(rng: np.random.Generator, n: int, fields) -> Iterator[list]:
    """``n`` rows of random ``fields``, built as they are iterated.

    The numbers come from one ``rng.random`` block drawn before this returns.
    Read in order they are exactly those of one ``rng.uniform(low, high)``
    call per column, as ``uniform`` computes ``low + (high - low) * u``.
    """
    ranges = [r for f in fields for r in (_ANGLES if f == _DIRECTION else (f,))]
    low, high = np.array(ranges).T
    numbers = iter((low + (high - low) * rng.random((n, len(ranges)))).ravel().tolist())

    def field(f):
        return Direction(next(numbers), next(numbers)) if f == _DIRECTION else next(numbers)

    return ([field(f) for f in fields] for _ in range(n))


def _four_labels(axis: Direction) -> list[CompoundLabel]:
    return [CompoundLabel(s, M, axis) for s, M in _LABELS]


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _norm_gaps(a: np.ndarray) -> np.ndarray:
    """Squared norm minus 1 of each row of ``a``."""
    return np.sum(np.abs(a) ** 2, axis=-1) - 1.0


# ---------------------------------------------------------------------------
# kernel identities
#
# These 1000-sample checks stack their outputs with np.fromiter, which
# keeps no list of per-sample arrays alive.


def _check_kernel_unitarity(rng, samples):
    rows = _draw(rng, samples, 2 * [_DIRECTION])
    x = np.fromiter((kernels.xi_half(i, f) for i, f in rows), (complex, (2, 2)), samples)
    return samples, x @ _dagger(x) - np.eye(2)


def _check_kernel_hermiticity(rng, samples):
    rows = _draw(rng, samples, 2 * [_DIRECTION])
    pairs = ((kernels.xi_half(f, i), kernels.xi_half(i, f)) for i, f in rows)
    x = np.fromiter(pairs, (complex, (2, 2, 2)), samples)
    return samples, x[:, 0] - _dagger(x[:, 1])


def _check_kernel_composition(rng, samples):
    rows = _draw(rng, samples, 3 * [_DIRECTION])
    triples = ([kernels.xi_half(*p) for p in ((a, c), (a, b), (b, c))] for a, b, c in rows)
    x = np.fromiter(triples, (complex, (3, 2, 2)), samples)
    return samples, x[:, 0] - x[:, 1] @ x[:, 2]


def _check_zeta_normalization(rng, samples):
    rows = _draw(rng, samples, [_DIRECTION])
    z = np.array([kernels.zeta_spin1(m, a) for (a,) in rows for m in (1, 0, -1)])
    return 3 * samples, _norm_gaps(z)


# The Clebsch–Gordan coefficients of (1, 1), (1, 0), (1, -1), (0, 0), one row
# each over B_INDEX_ORDER.
_CG_TABLE = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, SQRT_HALF, SQRT_HALF, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, SQRT_HALF, -SQRT_HALF, 0.0],
    ]
)


def _cg_table() -> np.ndarray:
    """The kernel's coefficients, laid out as _CG_TABLE."""
    cg = kernels.clebsch_gordan_half_half
    return np.array([[cg(s, M, m1, m2) for m1, m2 in B_INDEX_ORDER] for s, M in _LABELS])


def _check_clebsch_gordan_table(rng, samples):
    return _CG_TABLE.size, _cg_table() - _CG_TABLE


def _check_clebsch_gordan_orthonormality(rng, samples):
    t = _cg_table()
    return samples, t @ t.T - np.eye(4)


def _check_chi_completeness(rng, samples):
    rows = _draw(rng, samples, [_DIRECTION])
    labels = [label for (axis,) in rows for label in _four_labels(axis)]
    c = np.array([[kernels.chi(lb, m1, m2) for m1, m2 in B_INDEX_ORDER] for lb in labels])
    return 4 * samples, _norm_gaps(c)


# ---------------------------------------------------------------------------
# assembled states


def _check_state_normalization(rng, samples):
    t = np.array(
        [
            states.assemble_state(label, d, f).tensor
            for d, f, axis in _draw(rng, samples, 3 * [_DIRECTION])
            for label in _four_labels(axis)
        ]
    )
    return 4 * samples, _norm_gaps(t)


def _check_state_orthonormality(rng, samples):
    g = np.array(
        [
            states.gram_matrix([states.assemble_state(lb, d, f) for lb in _four_labels(a)])
            for a, d, f in _draw(rng, samples, 3 * [_DIRECTION])
        ]
    )
    return samples, g - np.eye(4)


# The z-axis states (1, 1), (1, 0), (1, -1), (0, 0), one row each over
# B_INDEX_ORDER: their tensors in the z basis and their coefficients.  They
# are the coupling coefficients, with the sign the spin-1 direction change
# along the z axis puts on (1, -1).
_STANDARD_PATTERNS = _CG_TABLE * [[1.0], [1.0], [-1.0], [1.0]]


def _check_standard_form_states(rng, samples):
    labels = _four_labels(Z_AXIS)
    got = np.array([states.assemble_state(lb, Z_AXIS, Z_AXIS).tensor for lb in labels])
    return samples, got - _STANDARD_PATTERNS


def _check_standard_form_operators(rng, samples):
    values = OutcomeValues(1.0, -1.0)
    cs = [c for (c,) in _draw(rng, samples, [_DIRECTION])]
    got = np.array([operators.r_matrix(Z_AXIS, c, values) for c in cs])
    theta, phi = np.array([(c.theta, c.phi) for c in cs]).T
    cos, sin = np.cos(theta), np.sin(theta)
    want = np.array([[cos, sin * np.exp(-1j * phi)], [sin * np.exp(1j * phi), -cos]])
    return samples, got - want.transpose(2, 0, 1)


def _check_axis_aligned_states(rng, samples):
    etas, coeffs, tensors = [], [], []
    for d, f in _draw(rng, samples, 2 * [_DIRECTION]):
        etas.append([[kernels.eta_from_z(m, x) for m in (PLUS, MINUS)] for x in (d, f)])
        for label in _four_labels(Z_AXIS):
            asm = states.reduce_axis_aligned(label, d, f)
            coeffs.append([t.coefficient for t in asm.terms])
            tensors.append(asm.tensor)
    # outer[n, (m1, m2)] = eta_d(m1) (x) eta_f(m2), the kron product of the
    # two rows; each label's reference tensor weighs them with its pattern.
    etas = np.array(etas)
    outer = (etas[:, 0, :, None, :, None] * etas[:, 1, None, :, None, :]).reshape(-1, 4, 4)
    gaps = [
        np.reshape(coeffs, (-1, 4, 4)) - _STANDARD_PATTERNS,
        np.reshape(tensors, (-1, 4, 4)) - _STANDARD_PATTERNS @ outer,
    ]
    return 4 * samples, gaps


# ---------------------------------------------------------------------------
# observable operators


def _check_operator_hermiticity(rng, samples):
    rows = _draw(rng, samples, 2 * [_DIRECTION] + 2 * [_VALUE])
    r = np.array([operators.r_matrix(i, c, OutcomeValues(p, m)) for i, c, p, m in rows])
    return samples, r - _dagger(r)


def _check_operator_spectrum(rng, samples):
    r, want = [], []
    for p, m, i, c in _draw(rng, samples, 2 * [_VALUE] + 2 * [_DIRECTION]):
        r.append(operators.r_matrix(i, c, OutcomeValues(p, m)))
        want.append(sorted((p, m)))
    return samples, np.linalg.eigvalsh(r) - want


def _check_operator_covariance(rng, samples):
    # Rebasing the block from intermediate d1 to d2 conjugates it by the
    # complex conjugate of the direction-change matrix between them.
    blocks = []
    for d1, d2, c, p, m in _draw(rng, samples, 3 * [_DIRECTION] + 2 * [_VALUE]):
        values = OutcomeValues(p, m)
        r1, r2 = operators.r_matrix(d1, c, values), operators.r_matrix(d2, c, values)
        blocks.append((r1, r2, kernels.xi_half(d2, d1).conj()))
    r1, r2, v = np.array(blocks).swapaxes(0, 1)
    return samples, r2 - v @ r1 @ _dagger(v)


# ---------------------------------------------------------------------------
# expectation engine


def _random_problem(rng, k: int):
    """A random label and spec (values on [-2, 2)) and ``k`` more directions.

    (s, M) comes from ``rng.integers``, whose draws interleave with the
    uniform ones, so these checks draw one sample at a time.
    """
    s, M = _LABELS[rng.integers(0, 4)]
    fields = 3 * [_DIRECTION] + 4 * [(-2.0, 2.0)] + k * [_DIRECTION]
    ((axis, c1, c2, p1, m1, p2, m2, *dirs),) = _draw(rng, 1, fields)
    spec = MeasurementSpec(c1, c2, OutcomeValues(p1, m1), OutcomeValues(p2, m2))
    return CompoundLabel(s, M, axis), spec, dirs


def _check_oracle_equivalence(rng, samples):
    gaps = []
    for _ in range(samples):
        label, spec, (d, f) = _random_problem(rng, 2)
        matrix = expectation.expectation_matrix(label, spec, d, f)
        gaps.append(matrix - expectation.expectation_oracle(label, spec))
    return samples, gaps


def _check_basis_invariance(rng, samples):
    spreads = []
    for _ in range(samples):
        label, spec, dirs = _random_problem(rng, 10)
        grid = product(dirs[:5], dirs[5:])
        report = expectation.verify_basis_invariance(label, spec, grid)
        spreads.append(report.basis_invariance_residual)
    return samples, spreads


def _check_probability_completeness(rng, samples):
    p = np.array(
        [
            expectation.outcome_probabilities(label, c1, c2)
            for c1, c2, axis in _draw(rng, samples, 3 * [_DIRECTION])
            for label in _four_labels(axis)
        ]
    )
    # each quadruple's sum off 1, and each probability's distance from [0, 1]
    gaps = np.hstack([p.sum(axis=1, keepdims=True) - 1.0, p - np.clip(p, 0.0, 1.0)])
    return 4 * samples, gaps


def _check_singlet_cosine_law(rng, samples):
    label = CompoundLabel(0, 0, Z_AXIS)
    vals = OutcomeValues(1.0, -1.0)
    thetas = np.linspace(0.0, math.pi, samples).tolist()
    values = []
    for theta, (d, f) in zip(thetas, _draw(rng, samples, 2 * [_DIRECTION])):
        c2 = Direction(theta, 0.0)
        spec = MeasurementSpec(Z_AXIS, c2, vals, vals)
        want = -math.cos(angle_between(Z_AXIS, c2))
        matrix = expectation.expectation_matrix(label, spec, d, f)
        values.append((matrix - want, expectation.expectation_oracle(label, spec) - want))
    return samples, values


def _check_singlet_rotation_invariance(rng, samples):
    gaps = []
    for c1, c2, delta in _draw(rng, samples, 2 * [_DIRECTION] + [_ANGLES[1]]):
        base = expectation.singlet_expectation(c1, c2)
        turned = expectation.singlet_expectation(
            Direction(c1.theta, c1.phi + delta), Direction(c2.theta, c2.phi + delta)
        )
        gaps.append(base - turned)
    return samples, gaps


def _check_chsh_extremum(rng, samples):
    # Coplanar settings 45 degrees apart saturate the 2*sqrt(2) bound; the
    # sign of the combination depends on which settings are primed.
    s = expectation.chsh_value(
        Direction(math.pi / 2, 0.0),
        Direction(0.0, 0.0),
        Direction(math.pi / 4, 0.0),
        Direction(3.0 * math.pi / 4, 0.0),
    )
    return samples, abs(s) - 2.0 * math.sqrt(2.0)


# (name, check, samples, tolerance) for each check, in the order they run.
# A check takes the generator and its sample count and returns the number of
# samples it reports with its residuals, a number or an array of any shape.
_CHECKS = (
    ("kernel_unitarity", _check_kernel_unitarity, 1000, 1e-12),
    ("kernel_hermiticity", _check_kernel_hermiticity, 1000, 1e-12),
    ("kernel_composition", _check_kernel_composition, 1000, 1e-12),
    ("zeta_normalization", _check_zeta_normalization, 100, 1e-12),
    ("clebsch_gordan_table", _check_clebsch_gordan_table, 16, 1e-15),
    ("clebsch_gordan_orthonormality", _check_clebsch_gordan_orthonormality, 1, 1e-15),
    ("chi_completeness", _check_chi_completeness, 100, 1e-12),
    ("state_normalization", _check_state_normalization, 100, 1e-12),
    ("state_orthonormality", _check_state_orthonormality, 100, 1e-12),
    ("standard_form_states", _check_standard_form_states, 4, 1e-15),
    ("standard_form_operators", _check_standard_form_operators, 200, 1e-15),
    ("axis_aligned_states", _check_axis_aligned_states, 100, 1e-12),
    ("operator_hermiticity", _check_operator_hermiticity, 300, 1e-12),
    ("operator_spectrum", _check_operator_spectrum, 300, 1e-10),
    ("operator_covariance", _check_operator_covariance, 300, 1e-12),
    ("oracle_equivalence", _check_oracle_equivalence, 1000, 1e-10),
    ("basis_invariance", _check_basis_invariance, 100, 1e-10),
    ("probability_completeness", _check_probability_completeness, 100, 1e-12),
    ("singlet_cosine_law", _check_singlet_cosine_law, 181, 1e-10),
    ("singlet_rotation_invariance", _check_singlet_rotation_invariance, 100, 1e-12),
    ("chsh_extremum", _check_chsh_extremum, 1, 1e-10),
)
DEFAULT_TOLERANCES: dict[str, float] = {name: tol for name, _, _, tol in _CHECKS}


def check_names() -> tuple[str, ...]:
    return tuple(name for name, *_ in _CHECKS)


def run_verification(
    seed: int = 0, overrides: dict[str, float] | None = None
) -> list[CheckResult]:
    """Run every check with a generator seeded once at the start.

    ``overrides`` replaces the default tolerance of the named checks.
    Unknown names raise KeyError so a typo cannot silently relax anything.
    A check passes when its largest residual magnitude is within tolerance.
    """
    overrides = dict(overrides or {})
    for name in overrides:
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown check name {name!r}")
    rng = np.random.default_rng(seed)
    results = []
    for name, check, samples, _ in _CHECKS:
        tol = overrides.get(name, DEFAULT_TOLERANCES[name])
        count, residuals = check(rng, samples)
        worst = float(np.max(np.abs(residuals)))
        results.append(CheckResult(name, count, worst, tol, bool(worst <= tol)))
    return results
