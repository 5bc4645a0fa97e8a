"""A batch gives at each point the bits of that point evaluated alone.

The formula bodies run unchanged on Direction and on Directions; these tests
compare every real and imaginary part by float.hex, so a signed zero or a
last bit that moves fails them.
"""

import math

import numpy as np
import pytest

from spinpair import expectation, kernels, operators, states
from spinpair.batch import stack
from spinpair.directions import Direction, Directions, Z_AXIS
from spinpair.kernels import B_INDEX_ORDER, CompoundLabel
from spinpair.operators import MeasurementSpec, OutcomeValues

LABELS = [(1, 1), (1, 0), (1, -1), (0, 0)]
# Raw angles at and next to the places where the reduction or a formula
# changes branch: the poles, pi, a full turn, the tiniest and huge values.
SPECIAL = [
    0.0,
    -0.0,
    math.pi,
    math.pi + 1e-16,
    math.pi - 1e-16,
    np.nextafter(math.pi, 4.0),
    np.nextafter(math.pi, 3.0),
    2.0 * math.pi - 1e-16,
    2.0 * math.pi,
    1e-300,
    -1e-300,
    1e15,
    3.0 * math.pi,
    -math.pi / 2.0,
]
N = 60


def _angles(rng) -> np.ndarray:
    x = rng.uniform(-8.0 * math.pi, 8.0 * math.pi, N)
    x[: len(SPECIAL)] = SPECIAL
    rng.shuffle(x)
    return x


def _directions(rng) -> Directions:
    return Directions(_angles(rng), _angles(rng))


def _bits(values) -> list:
    """float.hex of each real and imaginary part, point by point."""
    a = np.asarray(values)
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return [tuple(p.hex() for p in point) for point in zip(*(p.ravel().tolist() for p in parts))]


def _per_point(fn, n) -> np.ndarray:
    return np.array([fn(k) for k in range(n)])


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(2024)
    a, c1, c2, d, f = (_directions(rng) for _ in range(5))
    values = [rng.uniform(-2.0, 2.0, N) for _ in range(4)]
    values[0][:3] = [0.0, -0.0, 1.0]
    points = {name: x.points() for name, x in dict(a=a, c1=c1, c2=c2, d=d, f=f).items()}
    return dict(a=a, c1=c1, c2=c2, d=d, f=f, values=values, points=points)


def _spec(inputs, k=None):
    p1, m1, p2, m2 = inputs["values"] if k is None else (v[k].item() for v in inputs["values"])
    c1, c2 = (inputs[c] if k is None else inputs["points"][c][k] for c in ("c1", "c2"))
    return MeasurementSpec(c1, c2, OutcomeValues(p1, m1), OutcomeValues(p2, m2))


def _label(inputs, s, M, k=None):
    return CompoundLabel(s, M, inputs["a"] if k is None else inputs["points"]["a"][k])


def test_a_batch_reduces_its_angles_as_each_direction_does():
    rng = np.random.default_rng(7)
    theta, phi = _angles(rng), _angles(rng)
    batch = Directions(theta, phi)
    alone = [Direction(t, p) for t, p in zip(theta.tolist(), phi.tolist())]
    assert _bits(batch.theta) == _bits([x.theta for x in alone])
    assert _bits(batch.phi) == _bits([x.phi for x in alone])
    assert batch.points() == alone


def test_a_batch_refuses_an_angle_a_direction_refuses():
    with pytest.raises(ValueError, match="finite"):
        Directions(np.array([0.0, math.nan]), np.zeros(2))


@pytest.mark.parametrize("first, second", [("c1", "d"), ("d", "c1"), (None, "f"), ("f", None)])
def test_xi_half(inputs, first, second):
    # None stands for the z axis, a single direction paired with a batch
    def at(name, k=None):
        if name is None:
            return Z_AXIS
        return inputs[name] if k is None else inputs["points"][name][k]

    got = kernels.xi_half(at(first), at(second))
    want = _per_point(lambda k: kernels.xi_half(at(first, k), at(second, k)), N)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("M", [1, 0, -1])
def test_zeta_spin1(inputs, M):
    got = kernels.zeta_spin1(M, inputs["a"])
    want = _per_point(lambda k: kernels.zeta_spin1(M, inputs["points"]["a"][k]), N)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("s, M", LABELS)
def test_chi_row(inputs, s, M):
    label = _label(inputs, s, M)
    rows = [
        stack(kernels._chi_row(label), (4,)),
        stack([kernels.chi(label, m1, m2) for m1, m2 in B_INDEX_ORDER], (4,)),
    ]
    want = _per_point(lambda k: kernels._chi_row(_label(inputs, s, M, k)), N)
    for got in rows:
        assert _bits(np.broadcast_to(got, want.shape)) == _bits(want)


@pytest.mark.parametrize("s, M", LABELS)
def test_state_tensor(inputs, s, M):
    got = states.assemble_state(_label(inputs, s, M), inputs["d"], inputs["f"]).tensor
    points = inputs["points"]

    def alone(k):
        return states.assemble_state(_label(inputs, s, M, k), points["d"][k], points["f"][k]).tensor

    assert _bits(got) == _bits(_per_point(alone, N))


def test_r_matrix(inputs):
    spec = _spec(inputs)
    got = operators.r_matrix(inputs["d"], spec.c1, spec.values1)

    def alone(k):
        spec_k = _spec(inputs, k)
        return operators.r_matrix(inputs["points"]["d"][k], spec_k.c1, spec_k.values1)

    assert _bits(got) == _bits(_per_point(alone, N))


@pytest.mark.parametrize("s, M", LABELS)
def test_outcome_probabilities(inputs, s, M):
    got = expectation.outcome_probabilities(_label(inputs, s, M), inputs["c1"], inputs["c2"])
    points = inputs["points"]

    def alone(k):
        label = _label(inputs, s, M, k)
        return expectation.outcome_probabilities(label, points["c1"][k], points["c2"][k])

    assert _bits(got) == _bits(_per_point(alone, N))


@pytest.mark.parametrize("s, M", LABELS)
def test_both_expectation_routes(inputs, s, M):
    label, spec, points = _label(inputs, s, M), _spec(inputs), inputs["points"]
    matrix = expectation._matrix_route(label, spec, inputs["d"], inputs["f"])
    oracle = expectation._oracle_route(label, spec)

    def alone_matrix(k):
        return expectation.expectation_matrix(
            _label(inputs, s, M, k), _spec(inputs, k), points["d"][k], points["f"][k]
        )

    def alone_oracle(k):
        return expectation.expectation_oracle(_label(inputs, s, M, k), _spec(inputs, k))

    assert _bits(matrix) == _bits(_per_point(alone_matrix, N))
    assert _bits(oracle) == _bits(_per_point(alone_oracle, N))


def test_batch_axes_broadcast(inputs):
    # a (5, 1, n) batch against a (1, 5, n) one gives the 5 x 5 grid of pairs
    label, spec = _label(inputs, 1, 0), _spec(inputs)
    d = Directions(inputs["d"].theta[:5, None, None], inputs["d"].phi[:5, None, None])
    f = Directions(inputs["f"].theta[None, :5, None], inputs["f"].phi[None, :5, None])
    grid = expectation._matrix_route(label, spec, d, f)
    assert grid.shape == (5, 5, N)
    for i in range(5):
        for j in range(5):
            one = expectation._matrix_route(label, spec, inputs["d"][i], inputs["f"][j])
            assert _bits(grid[i, j]) == _bits(one)


def test_a_batch_with_an_imaginary_residue_at_one_point_raises(monkeypatch, inputs):
    true_pair = operators.operator_pair

    def one_point_off(spec, d, f):
        r1, r2 = true_pair(spec, d, f)
        r1 = r1.copy()
        r1[7, 0, 0] += 1e-9j
        return r1, r2

    monkeypatch.setattr(expectation, "operator_pair", one_point_off)
    with pytest.raises(expectation.InternalConsistencyError, match="imaginary part"):
        expectation._matrix_route(_label(inputs, 1, 1), _spec(inputs), inputs["d"], inputs["f"])
