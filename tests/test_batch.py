"""A batch gives at each point the bits of that point evaluated alone.

The formula bodies run unchanged on Direction and on Directions; these tests
compare every real and imaginary part by float.hex, so a signed zero or a
last bit that moves fails them.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpair import expectation, kernels, operators, states
from spinpair.batch import Complexes, stack
from spinpair.directions import Direction, Directions, Z_AXIS, _reduce
from spinpair.kernels import B_INDEX_ORDER, CompoundLabel
from spinpair.operators import MeasurementSpec, OutcomeValues
from support import EDGE_ANGLES, inject_blocks, phi_in_range, theta_in_range

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


@pytest.mark.parametrize(
    "index",
    [np.arange(N) % 3 == 0, slice(5, 40, 3), 7, None],
    ids=["mask", "slice", "integer", "new-axis"],
)
def test_an_indexed_batch_has_the_angles_of_a_batch_built_from_them(index):
    # indexing takes the reduced angles as they are, reducing nothing again
    rng = np.random.default_rng(11)
    theta, phi = _angles(rng), _angles(rng)
    got = Directions(theta, phi)[index]
    want = Directions(theta[index], phi[index])
    for part in ("theta", "phi"):
        assert np.shape(getattr(got, part)) == np.shape(getattr(want, part))
        assert _bits(getattr(got, part)) == _bits(getattr(want, part))


def _assert_reduced(theta, phi):
    """A new batch on these angles holds the bits of the full reduction, no
    -0.0, in read-only arrays of its own, and keeps no rows."""
    theta, phi = np.array(theta, dtype=float), np.array(phi, dtype=float)
    batch = Directions(theta, phi)
    want = _reduce(theta, phi, np.fmod, np.where)
    for got, reduced, given_ in zip((batch.theta, batch.phi), want, (theta, phi)):
        assert _bits(got) == _bits(reduced)
        assert not np.signbit(got).any()
        assert not got.flags.writeable and given_.flags.writeable
    assert not any(hasattr(batch, name) for name in ("_eta", "_xi", "_zeta"))


@given(st.lists(st.tuples(theta_in_range, phi_in_range), max_size=8))
def test_in_range_angles_are_taken_with_the_bits_of_the_reduction(points):
    _assert_reduced([theta for theta, _ in points], [phi for _, phi in points])


@pytest.mark.parametrize("kind", ["in-range", "edges", "mixed"])
def test_a_batch_on_edge_angles_has_the_bits_of_the_reduction(kind):
    thetas = [x for x in EDGE_ANGLES if 0.0 <= x <= math.pi]
    # in range, a batch taken as it is; else phi leaves the range at a few points
    in_range = [x for x in EDGE_ANGLES if 0.0 <= x < 2.0 * math.pi]
    phis = in_range if kind == "in-range" else EDGE_ANGLES
    theta, phi = np.meshgrid(thetas, phis)
    if kind == "mixed":  # and theta at every other point
        theta.ravel()[::2] -= 3.0
    _assert_reduced(theta, phi)
    _assert_reduced(phi, theta)  # and with the angles swapped
    for t, p in zip(theta.ravel().tolist(), phi.ravel().tolist()):  # and point by point
        _assert_reduced([t], [p])
        _assert_reduced([p], [t])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_batch_refuses_an_angle_a_direction_refuses(bad):
    for theta, phi in (([0.3, bad], [0.2, 0.5]), ([0.3, 0.4], [bad, 0.5])):
        with pytest.raises(ValueError, match="direction angles must be finite"):
            Directions(np.array(theta), np.array(phi))


@pytest.mark.parametrize("theta, phi", [(np.array([1j]), 0.0), (0.0, [0.5, 1 + 0j])])
def test_a_batch_refuses_complex_angles_as_a_direction_does(theta, phi):
    # np.asarray(x, dtype=float) would drop an imaginary part with only a ComplexWarning
    with pytest.raises(TypeError):
        Direction(1j, 0.0)
    with pytest.raises(TypeError, match="real"):
        Directions(theta, phi)


@pytest.mark.parametrize(
    "take",
    [
        lambda b: b,
        lambda b: b[::2],
        lambda b: b[[1, 0]],
        lambda b: b[np.array([True, False])],
        copy.deepcopy,
        lambda b: pickle.loads(pickle.dumps(b)),
    ],
    ids=["whole", "slice", "index-array", "mask", "deepcopy", "pickle"],
)
def test_a_batch_refuses_writes_to_its_angles(take):
    # a batch keeps the rows a kernel makes from its angles, which a write
    # into them would leave stale
    batch = Directions([0.3, 1.2], [0.2, 2.0])
    kernels.xi_half(Z_AXIS, batch)
    taken = take(batch)
    for angles in (taken.theta, taken.phi):
        with pytest.raises(ValueError, match="read-only"):
            angles[0] = 2.0


def test_a_copied_batch_has_the_angles_and_rows_of_the_batch():
    batch = Directions([0.3, 1.2, 1e-300], [0.2, 2.0, 6.0])
    want = _bits(kernels.xi_half(Z_AXIS, batch))
    for copied in (copy.copy(batch), copy.deepcopy(batch), pickle.loads(pickle.dumps(batch))):
        for part in ("theta", "phi"):
            assert _bits(getattr(copied, part)) == _bits(getattr(batch, part))
        assert _bits(kernels.xi_half(Z_AXIS, copied)) == want


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


# The M of a triplet batch: mixed over the points, or the three M as a (3, 1)
# axis against them.
MIXED_M = np.random.default_rng(9).integers(-1, 2, N)
LABEL_AXIS_M = np.array([[1], [0], [-1]])


@pytest.mark.parametrize("M", [MIXED_M, LABEL_AXIS_M], ids=["mixed", "label-axis"])
@pytest.mark.parametrize("axis", ["a", "poles", "z-axis"])
def test_a_triplet_batch_has_the_bits_of_each_label(inputs, M, axis):
    # each point of kernels._TripletBatch(M, a) is CompoundLabel(1, M_k, a_k),
    # through the oracle route's chi and zeta_spin1 and the matrix route's
    # coupling row alike
    points = inputs["points"]
    if axis == "z-axis":
        a, a_points = Z_AXIS, N * [Z_AXIS]
    else:
        a = inputs["a"]
        if axis == "poles":  # both poles, each at the azimuths of inputs["a"]
            a = Directions(np.resize([0.0, math.pi], N), a.phi)
        a_points = a.points()
    label = kernels._TripletBatch(M, a)

    def at(k=None):
        # the batch's inputs, or sample k's
        names = ("d", "f", "c1", "c2")
        x = {name: inputs[name] if k is None else points[name][k] for name in names}
        return dict(x, spec=_spec(inputs, k))

    def each(fn, samples):
        # fn on each point's label and inputs, row major over the batch axes
        shape = np.broadcast_shapes(M.shape, np.shape(a.theta), (N,) if samples else ())
        ms = np.broadcast_to(M, shape).ravel().tolist()
        ks = np.broadcast_to(np.arange(shape[-1]), shape).ravel().tolist()
        return np.array([fn(CompoundLabel(1, m, a_points[k]), at(k)) for m, k in zip(ms, ks)])

    # (fn, whether it reads the inputs of the samples)
    cases = [
        (lambda lb, x: kernels.zeta_spin1(lb.M, lb.axis), False),
        (lambda lb, x: stack([kernels.chi(lb, m1, m2) for m1, m2 in B_INDEX_ORDER], (4,)), False),
        (lambda lb, x: stack(lb._coupling_row, (4,)), False),
        (lambda lb, x: states.assemble_state(lb, x["d"], x["f"]).tensor, True),
        (lambda lb, x: expectation.outcome_probabilities(lb, x["c1"], x["c2"]), True),
        (lambda lb, x: expectation._matrix_route(lb, x["spec"], x["d"], x["f"]), True),
        (lambda lb, x: expectation._oracle_route(lb, x["spec"]), True),
    ]
    for fn, samples in cases:
        got, want = fn(label, at()), each(fn, samples)
        assert np.size(got) == np.size(want)
        assert _bits(got) == _bits(want)


def test_singlet_expectation(inputs):
    got = expectation.singlet_expectation(inputs["c1"], inputs["c2"])
    points = inputs["points"]

    def alone(k):
        return expectation.singlet_expectation(points["c1"][k], points["c2"][k])

    assert _bits(got) == _bits(_per_point(alone, N))


def test_a_batch_read_again_has_the_bits_of_each_point():
    # fresh batches, so that the first read is the one that keeps their rows
    rng = np.random.default_rng(5)
    fresh = dict(a=_directions(rng), c1=_directions(rng), c2=_directions(rng))
    fresh["values"] = [rng.uniform(-2.0, 2.0, N) for _ in range(4)]
    fresh["points"] = {name: fresh[name].points() for name in ("a", "c1", "c2")}

    def read(k=None):
        spec = _spec(fresh, k)
        out = [kernels.xi_half(Z_AXIS, c) for c in (spec.c1, spec.c2)]
        out += [kernels.zeta_spin1(M, _label(fresh, 1, M, k).axis) for M in (1, 0, -1)]
        for s, M in LABELS:
            label = _label(fresh, s, M, k)
            out.append(expectation.outcome_probabilities(label, spec.c1, spec.c2))
            out.append(expectation._oracle_route(label, spec))
        return out

    alone = [read(k) for k in range(N)]
    want = [_bits(_per_point(lambda k: alone[k][i], N)) for i in range(len(alone[0]))]
    for _ in range(2):
        assert [_bits(got) for got in read()] == want


def _as_array(z: Complexes) -> np.ndarray:
    """The points of ``z`` as one complex array, its parts copied bit for bit."""
    out = np.empty(np.shape(z.real), complex)
    out.real, out.imag = z.real, z.imag
    return out


def test_complexes_times_a_real_array_has_the_bits_of_complex_times_float():
    # every combination of signed zeros, infinities, NaN, subnormals and two
    # ordinary numbers as the real part, the imaginary part and the factor
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1.5, -3.0]
    a, b, x = (g.ravel() for g in np.meshgrid(*3 * [np.array(edges)], indexing="ij"))
    z = Complexes(a, b)
    want = _bits([complex(p, q) * r for p, q, r in zip(a.tolist(), b.tolist(), x.tolist())])
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, as in Python
        assert _bits(_as_array(z * x)) == _bits(_as_array(x * z)) == want
        assert _bits(_as_array(z * Complexes(x, np.zeros_like(x)))) == want


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
    # residues of either sign at two points: the batch names the first, row
    # major, by the signed imaginary part that point raises alone
    true_pair = operators.operator_pair

    def message(residues, *args):
        def off(spec, d, f):
            r1, r2 = true_pair(spec, d, f)
            r1 = r1.copy()
            for k, residue in residues.items():
                r1[k][0, 0] += residue  # index () is the whole block of one point
            return r1, r2

        inject_blocks(monkeypatch, off)
        with pytest.raises(expectation.InternalConsistencyError, match="imaginary part") as exc:
            expectation._matrix_route(*args)
        return str(exc.value)

    def alone(k, residue):
        points = inputs["points"]
        args = _label(inputs, 1, 1, k), _spec(inputs, k), points["d"][k], points["f"][k]
        return message({(): residue}, *args)

    batch = _label(inputs, 1, 1), _spec(inputs), inputs["d"], inputs["f"]
    got = message({7: 1e-9j, 31: -1e-6j}, *batch)
    assert got == alone(7, 1e-9j)
    assert got != alone(31, -1e-6j)
    assert "imaginary part -" in got  # the sign, which the largest magnitude drops
