"""Self-verification sweeps behind the command line ``verify`` entry point.

Each check draws its samples from a generator of its own, seeded from the
run's seed and the check's row, evaluates the library on them as one batch
per label (see ``batch``) and returns the magnitude of every residual, one
row per sample; it passes when the worst is within tolerance.  A residual is
formed from real and imaginary parts with float64 +, -, * and hypot only,
which round alike on every host, so the report does not depend on the CPU.
The checks run in this process, one after another.  Kernel and engine
functions are looked up through their modules at call time, so a harness
that swaps one out (to confirm the suite notices) does not need to reload
anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expectation, kernels, operators, states
from .batch import rect, unstack
from .directions import Direction, Directions, Z_AXIS, angle_between
from .kernels import B_INDEX_ORDER, CompoundLabel, SQRT_HALF
from .operators import SPIN_PROJECTION_VALUES, MeasurementSpec, OutcomeValues


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


def _draw(rng: np.random.Generator, n: int, fields) -> list:
    """``n`` random values of each of ``fields``: a Directions per direction,
    a float64 array per number.

    The numbers are one ``rng.random((n, k))`` block, one column per angle or
    number.  Read row by row they are exactly those of one
    ``rng.uniform(low, high)`` call per column, as ``uniform`` computes
    ``low + (high - low) * u``.
    """
    ranges = [r for f in fields for r in (_ANGLES if f == _DIRECTION else (f,))]
    low, high = np.array(ranges).T
    columns = iter((low + (high - low) * rng.random((n, len(ranges)))).T)
    return [
        Directions(next(columns), next(columns)) if f == _DIRECTION else next(columns)
        for f in fields
    ]


def _four_labels(axis) -> list[CompoundLabel]:
    return [CompoundLabel(s, M, axis) for s, M in _LABELS]


def _rows(n: int, *residuals) -> np.ndarray:
    """``n`` rows, one per sample, of the magnitude of each residual; a
    residual the same at every sample repeats."""
    return np.stack([np.broadcast_to(abs(r), (n,)) for r in residuals], axis=-1)


def _gaps(n: int, got, want) -> np.ndarray:
    """``_rows`` of the entry-by-entry gaps between two matrices of entries."""
    pairs = (pair for rows in zip(got, want) for pair in zip(*rows))
    return _rows(n, *(g - w for g, w in pairs))


def _product(a, b):
    """The product of two 2x2 matrices of entries."""
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def _dagger(a):
    """The conjugate transpose of a 2x2 matrix of entries."""
    return [[a[0][i].conjugate(), a[1][i].conjugate()] for i in (0, 1)]


def _norm_gap(values):
    """Squared norm minus 1 of a vector of entries."""
    return sum(abs(v) * abs(v) for v in values) - 1.0


_EYE2 = np.eye(2).tolist()
_EYE4 = np.eye(4).tolist()


# ---------------------------------------------------------------------------
# kernel identities


def _check_kernel_unitarity(rng, samples):
    i, f = _draw(rng, samples, 2 * [_DIRECTION])
    x = unstack(kernels.xi_half(i, f), 2)
    return _gaps(samples, _product(x, _dagger(x)), _EYE2)


def _check_kernel_hermiticity(rng, samples):
    i, f = _draw(rng, samples, 2 * [_DIRECTION])
    back, forth = (unstack(kernels.xi_half(*p), 2) for p in ((f, i), (i, f)))
    return _gaps(samples, back, _dagger(forth))


def _check_kernel_composition(rng, samples):
    a, b, c = _draw(rng, samples, 3 * [_DIRECTION])
    ac, ab, bc = (unstack(kernels.xi_half(*p), 2) for p in ((a, c), (a, b), (b, c)))
    return _gaps(samples, ac, _product(ab, bc))


def _check_zeta_normalization(rng, samples):
    (a,) = _draw(rng, samples, [_DIRECTION])
    triples = (unstack(kernels.zeta_spin1(m, a), 1) for m in (1, 0, -1))
    return np.concatenate([_rows(samples, _norm_gap(z)) for z in triples])


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


def _check_clebsch_gordan_table(rng):
    return (_cg_table() - _CG_TABLE).ravel()


def _check_clebsch_gordan_orthonormality(rng):
    t = _cg_table()
    return [t @ t.T - np.eye(4)]


def _check_chi_completeness(rng, samples):
    (axis,) = _draw(rng, samples, [_DIRECTION])
    rows = ([kernels.chi(lb, m1, m2) for m1, m2 in B_INDEX_ORDER] for lb in _four_labels(axis))
    return np.concatenate([_rows(samples, _norm_gap(row)) for row in rows])


# ---------------------------------------------------------------------------
# assembled states


def _check_state_normalization(rng, samples):
    d, f, axis = _draw(rng, samples, 3 * [_DIRECTION])
    tensors = (states.assemble_state(lb, d, f).tensor for lb in _four_labels(axis))
    return np.concatenate([_rows(samples, _norm_gap(unstack(t, 1))) for t in tensors])


def _check_state_orthonormality(rng, samples):
    a, d, f = _draw(rng, samples, 3 * [_DIRECTION])
    t = [unstack(states.assemble_state(lb, d, f).tensor, 1) for lb in _four_labels(a)]
    gram = [[sum(x.conjugate() * y for x, y in zip(ti, tj)) for tj in t] for ti in t]
    return _gaps(samples, gram, _EYE4)


# The z-axis states (1, 1), (1, 0), (1, -1), (0, 0), one row each over
# B_INDEX_ORDER: their tensors in the z basis and their coefficients.  They
# are the coupling coefficients, with the sign the spin-1 direction change
# along the z axis puts on (1, -1).
_STANDARD_PATTERNS = (_CG_TABLE * [[1.0], [1.0], [-1.0], [1.0]]).tolist()


def _check_standard_form_states(rng):
    labels = _four_labels(Z_AXIS)
    got = [states.assemble_state(lb, Z_AXIS, Z_AXIS).tensor.tolist() for lb in labels]
    # one row per label: its four components' gaps
    return np.array([[abs(g - w) for g, w in zip(*rows)] for rows in zip(got, _STANDARD_PATTERNS)])


def _check_standard_form_operators(rng, samples):
    (c,) = _draw(rng, samples, [_DIRECTION])
    got = unstack(operators.r_matrix(Z_AXIS, c, SPIN_PROJECTION_VALUES), 2)
    cos, sin = np.cos(c.theta), np.sin(c.theta)
    phase = rect(1.0, c.phi)  # exp(1j * phi)
    return _gaps(samples, got, [[cos, sin * phase.conjugate()], [sin * phase, -cos]])


def _check_axis_aligned_states(rng, samples):
    d, f = _draw(rng, samples, 2 * [_DIRECTION])
    eta_d, eta_f = (unstack(kernels.xi_half(Z_AXIS, x), 2) for x in (d, f))
    # outer[k] = eta_d(m1) (x) eta_f(m2) for the k-th (m1, m2) of
    # B_INDEX_ORDER, the kron product of the two rows; each label's reference
    # tensor weighs them with its pattern.
    outer = [
        [eta_d[m1][i] * eta_f[m2][j] for i in (0, 1) for j in (0, 1)] for m1, m2 in B_INDEX_ORDER
    ]
    rows = []
    for label, pattern in zip(_four_labels(Z_AXIS), _STANDARD_PATTERNS):
        asm = states.reduce_axis_aligned(label, d, f)
        want = [sum(p * o[j] for p, o in zip(pattern, outer)) for j in range(4)]
        # one row per sample: the four coefficient gaps, then the four tensor gaps
        coefficient_gaps = (t.coefficient - p for t, p in zip(asm.terms, pattern))
        tensor_gaps = (t - w for t, w in zip(unstack(asm.tensor, 1), want))
        rows.append(_rows(samples, *coefficient_gaps, *tensor_gaps))
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# observable operators


def _check_operator_hermiticity(rng, samples):
    i, c, p, m = _draw(rng, samples, 2 * [_DIRECTION] + 2 * [_VALUE])
    r = unstack(operators.r_matrix(i, c, OutcomeValues(p, m)), 2)
    return _gaps(samples, r, _dagger(r))


def _check_operator_spectrum(rng, samples):
    p, m, i, c = _draw(rng, samples, 2 * [_VALUE] + 2 * [_DIRECTION])
    (r00, r01), (_, r11) = unstack(operators.r_matrix(i, c, OutcomeValues(p, m)), 2)
    # the eigenvalues of the Hermitian [[a, b], [conj(b), d]] are
    # (a + d) / 2 -+ hypot((a - d) / 2, |b|)
    mean = (r00.real + r11.real) / 2.0
    half_gap = np.hypot((r00.real - r11.real) / 2.0, abs(r01))
    return _rows(samples, mean - half_gap - np.minimum(p, m), mean + half_gap - np.maximum(p, m))


def _check_operator_covariance(rng, samples):
    # Rebasing the block from intermediate d1 to d2 conjugates it by the
    # complex conjugate of the direction-change matrix between them.
    d1, d2, c, p, m = _draw(rng, samples, 3 * [_DIRECTION] + 2 * [_VALUE])
    values = OutcomeValues(p, m)
    r1, r2 = (unstack(operators.r_matrix(d, c, values), 2) for d in (d1, d2))
    v = [[x.conjugate() for x in row] for row in unstack(kernels.xi_half(d2, d1), 2)]
    return _gaps(samples, r2, _product(_product(v, r1), _dagger(v)))


# ---------------------------------------------------------------------------
# expectation engine


def _random_problems(rng, n: int, k: int) -> list:
    """``n`` random labels and specs (values on [-2, 2)), each with ``k`` more
    directions, as one (label, spec, more) batch per label of _LABELS;
    ``more`` has shape (k, samples with that label).

    The labels come from one ``rng.integers`` block and everything else from
    one ``_draw`` block after it.
    """
    labels = rng.integers(0, 4, n)
    fields = 3 * [_DIRECTION] + 4 * [(-2.0, 2.0)] + k * [_DIRECTION]
    axis, c1, c2, p1, m1, p2, m2, *more = _draw(rng, n, fields)
    more = Directions(np.array([x.theta for x in more]), np.array([x.phi for x in more]))
    problems = []
    for i, (s, M) in enumerate(_LABELS):
        at = labels == i
        values = OutcomeValues(p1[at], m1[at]), OutcomeValues(p2[at], m2[at])
        spec = MeasurementSpec(c1[at], c2[at], *values)
        problems.append((CompoundLabel(s, M, axis[at]), spec, more[:, at]))
    return problems


def _check_oracle_equivalence(rng, samples):
    gaps = []
    for label, spec, more in _random_problems(rng, samples, 2):
        matrix = expectation._matrix_route(label, spec, more[0], more[1])
        gaps.append(matrix - expectation._oracle_route(label, spec))
    return np.abs(np.concatenate(gaps))


def _check_basis_invariance(rng, samples):
    spreads = []
    for label, spec, more in _random_problems(rng, samples, 10):
        # the matrix route at the 5 x 5 (d, f) pairs of each problem, pairs first
        values = expectation._matrix_route(label, spec, more[:5, None], more[None, 5:])
        spreads.append(values.max(axis=(0, 1)) - values.min(axis=(0, 1)))
    return np.abs(np.concatenate(spreads))


def _check_probability_completeness(rng, samples):
    c1, c2, axis = _draw(rng, samples, 3 * [_DIRECTION])
    rows = []
    for label in _four_labels(axis):
        p = expectation.outcome_probabilities(label, c1, c2)
        # each quadruple's sum off 1, and each probability's distance from [0, 1]
        rows.append(_rows(samples, sum(unstack(p, 1)) - 1.0, *(p - np.clip(p, 0.0, 1.0)).T))
    return np.concatenate(rows)


def _check_singlet_cosine_law(rng, samples):
    singlet = CompoundLabel(0, 0, Z_AXIS)
    d, f = _draw(rng, samples, 2 * [_DIRECTION])
    c2 = Directions(np.linspace(0.0, math.pi, samples), 0.0)
    spec = MeasurementSpec(Z_AXIS, c2, SPIN_PROJECTION_VALUES, SPIN_PROJECTION_VALUES)
    want = np.array([-math.cos(angle_between(Z_AXIS, c)) for c in c2.points()])
    matrix = expectation._matrix_route(singlet, spec, d, f)
    return _rows(samples, matrix - want, expectation._oracle_route(singlet, spec) - want)


def _check_singlet_rotation_invariance(rng, samples):
    c1, c2, delta = _draw(rng, samples, 2 * [_DIRECTION] + [_ANGLES[1]])
    value = expectation.singlet_expectation
    turned = (Directions(c.theta, c.phi + delta) for c in (c1, c2))
    return np.abs(value(c1, c2) - value(*turned))


def _check_chsh_extremum(rng):
    # Coplanar settings 45 degrees apart saturate the 2*sqrt(2) bound; the
    # sign of the combination depends on which settings are primed.
    s = expectation.chsh_value(
        Direction(math.pi / 2, 0.0),
        Direction(0.0, 0.0),
        Direction(math.pi / 4, 0.0),
        Direction(3.0 * math.pi / 4, 0.0),
    )
    return abs(s) - 2.0 * math.sqrt(2.0)


# (name, check, tolerance, *args) for each check, in the order they are
# reported.  A check takes its own generator and args, the number of samples
# it draws for a check that draws any, and returns its residuals: one leading
# row per sample it reports, or one number for a single sample.
_CHECKS = (
    ("kernel_unitarity", _check_kernel_unitarity, 1e-12, 1000),
    ("kernel_hermiticity", _check_kernel_hermiticity, 1e-12, 1000),
    ("kernel_composition", _check_kernel_composition, 1e-12, 1000),
    ("zeta_normalization", _check_zeta_normalization, 1e-12, 100),
    ("clebsch_gordan_table", _check_clebsch_gordan_table, 1e-15),
    ("clebsch_gordan_orthonormality", _check_clebsch_gordan_orthonormality, 1e-15),
    ("chi_completeness", _check_chi_completeness, 1e-12, 100),
    ("state_normalization", _check_state_normalization, 1e-12, 100),
    ("state_orthonormality", _check_state_orthonormality, 1e-12, 100),
    ("standard_form_states", _check_standard_form_states, 1e-15),
    ("standard_form_operators", _check_standard_form_operators, 1e-15, 200),
    ("axis_aligned_states", _check_axis_aligned_states, 1e-12, 100),
    ("operator_hermiticity", _check_operator_hermiticity, 1e-12, 300),
    ("operator_spectrum", _check_operator_spectrum, 1e-10, 300),
    ("operator_covariance", _check_operator_covariance, 1e-12, 300),
    ("oracle_equivalence", _check_oracle_equivalence, 1e-10, 1000),
    ("basis_invariance", _check_basis_invariance, 1e-10, 100),
    ("probability_completeness", _check_probability_completeness, 1e-12, 100),
    ("singlet_cosine_law", _check_singlet_cosine_law, 1e-10, 181),
    ("singlet_rotation_invariance", _check_singlet_rotation_invariance, 1e-12, 100),
    ("chsh_extremum", _check_chsh_extremum, 1e-10),
)
DEFAULT_TOLERANCES: dict[str, float] = {name: tol for name, _, tol, *_ in _CHECKS}


def run_verification(
    seed: int = 0, overrides: dict[str, float] | None = None
) -> list[CheckResult]:
    """Run every check, each on a generator of its own seeded from ``seed``.

    ``overrides`` replaces the default tolerance of the named checks.
    Unknown names raise KeyError so a typo cannot silently relax anything.
    A check passes when its largest residual magnitude is within tolerance.
    Check ``index`` draws from ``np.random.SeedSequence(seed).spawn(len(_CHECKS))[index]``,
    so its result depends only on the seed and its row.
    """
    overrides = dict(overrides or {})
    for name in overrides:
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(f"unknown check name {name!r}")
    results = []
    for index, (name, check, _, *args) in enumerate(_CHECKS):
        # the index-th child of SeedSequence(seed), without spawning the others
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        residuals = np.atleast_1d(check(rng, *args))
        worst = float(np.max(np.abs(residuals)))
        tol = overrides.get(name, DEFAULT_TOLERANCES[name])
        results.append(CheckResult(name, len(residuals), worst, tol, bool(worst <= tol)))
    return results
