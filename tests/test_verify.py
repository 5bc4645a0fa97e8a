import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import spinpair.expectation as expectation_mod
import spinpair.kernels as kernels_mod
import spinpair.operators as operators_mod
import spinpair.states as states_mod
from spinpair import verify
from spinpair.directions import Directions


def _same(a, b):
    return np.array_equal(a.theta, b.theta) and np.array_equal(a.phi, b.phi)


class TestDraw:
    def test_block_equals_successive_uniform_draws(self):
        # a direction, an outcome value, a direction, two outcome values
        fields = [verify._DIRECTION, (-2.0, 2.0), verify._DIRECTION] + 2 * [(-2.0, 2.0)]
        ranges = [(0, math.pi), (0, 2 * math.pi), (-2, 2), (0, math.pi), (0, 2 * math.pi)]
        ranges += 2 * [(-2, 2)]
        seq = np.random.default_rng(11)
        want = [[seq.uniform(low, high) for low, high in ranges] for _ in range(300)]
        a, p, b, q, r = verify._draw(np.random.default_rng(11), 300, fields)
        got = np.column_stack([a.theta, a.phi, p, b.theta, b.phi, q, r])
        assert np.array_equal(got, want)
        assert isinstance(a, Directions) and isinstance(b, Directions)
        assert all(x.dtype == np.float64 and x.shape == (300,) for x in (a.theta, a.phi, p, q, r))

    def test_random_problems_draw_the_labels_then_one_block(self):
        # one rng.integers block for all n labels, then one _draw block for
        # everything else, so a problem's numbers do not depend on n's labels;
        # the problems come as two batches, the triplets (an M per sample)
        # and then the singlet, and sample i keeps its label and row i of
        # every field
        n, k = 40, 3
        seq = np.random.default_rng(5)
        labels = seq.integers(0, 4, n)
        fields = 3 * [verify._DIRECTION] + 4 * [(-2.0, 2.0)] + k * [verify._DIRECTION]
        axis, c1, c2, p1, m1, p2, m2, *more = verify._draw(seq, n, fields)
        block = np.random.default_rng(5)
        problems = list(verify._random_problems(block, n, k))
        assert block.random() == seq.random()  # both blocks drawn before the first problem
        triplet = np.array([verify._LABELS[i][0] == 1 for i in labels])
        assert 0 < np.count_nonzero(triplet) < n  # both batches hold samples
        (triplets, *_), (singlet, *_) = problems
        assert isinstance(triplets, kernels_mod._TripletBatch)
        assert isinstance(singlet, kernels_mod.CompoundLabel)
        for (label, spec, dirs), at in zip(problems, (triplet, ~triplet)):
            want = [verify._LABELS[i] for i in labels[at]]
            assert [(label.s, M) for M in np.broadcast_to(label.M, at.sum()).tolist()] == want
            assert _same(label.axis, axis[at])
            assert _same(spec.c1, c1[at]) and _same(spec.c2, c2[at])
            v1, v2 = spec.values1, spec.values2
            got = (v1.r_plus, v1.r_minus, v2.r_plus, v2.r_minus)
            assert all(np.array_equal(g, x[at]) for g, x in zip(got, (p1, m1, p2, m2)))
            assert dirs.theta.shape == (k, np.count_nonzero(at))
            assert all(_same(dirs[j], more[j][at]) for j in range(k))
        assert sum(len(label.axis.theta) for label, _, _ in problems) == n

    def test_no_rows(self):
        rng = np.random.default_rng(3)
        (d,) = verify._draw(rng, 0, [verify._DIRECTION])
        assert d.theta.shape == d.phi.shape == (0,)
        assert rng.random() == np.random.default_rng(3).random()


def _scaled(x, k):
    x = x.copy()
    x[k] = x[k] * (1.0 + 1e-6)
    return x


def _scaled_tensor(asm, k):
    # sample k is on the axis before the tensor's own, after a triplet
    # batch's label axis
    tensor = asm.tensor.copy()
    tensor[..., k, :] = tensor[..., k, :] * (1.0 + 1e-6)
    return dataclasses.replace(asm, tensor=tensor)


def _nan(x, k):
    x = x.copy()
    x[k] = x[k] * math.nan
    return x


@pytest.mark.parametrize(
    "module, name, k, corrupt, check",
    [
        (kernels_mod, "xi_half", 500, _scaled, "kernel_unitarity"),
        (operators_mod, "r_matrix", 100, _scaled, "standard_form_operators"),
        (states_mod, "assemble_state", 50, _scaled_tensor, "state_normalization"),
        (kernels_mod, "xi_half", 500, _nan, "kernel_unitarity"),
        (expectation_mod, "_matrix_route", 45, _scaled, "singlet_cosine_law"),
    ],
    ids=["xi_half-500", "r_matrix-100", "assemble_state-50", "xi_half-500-nan", "matrix_route-45"],
)
def test_one_faulty_sample_fails_its_check(monkeypatch, module, name, k, corrupt, check):
    # Only sample k of the first batch the named check evaluates is wrong;
    # that check must fail, and no other.
    true_fn = getattr(module, name)
    calls, running = Counter(), [None]

    def faulty(*args):
        calls[running[0]] += 1
        if running[0] == check and calls[check] == 1:
            return corrupt(true_fn(*args), k)
        return true_fn(*args)

    def watched(check_name, fn):
        def run(rng, *args):
            running[0] = check_name
            return fn(rng, *args)

        return run

    monkeypatch.setattr(module, name, faulty)
    rows = tuple((n, watched(n, fn), *rest) for n, fn, *rest in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", rows)
    results = verify.run_verification(0)
    assert [r.name for r in results if not r.passed] == [check]


def _alone(seed, row, index):
    """A _CHECKS row run by itself on stream ``index`` of ``seed``: (residual
    rows, worst); a check that returns one number reports one sample."""
    _, check, _, *args = row
    stream = np.random.SeedSequence(seed).spawn(len(verify._CHECKS))[index]
    residuals = check(np.random.default_rng(stream), *args)
    count = len(residuals) if np.ndim(residuals) else 1
    return count, float(np.max(np.abs(residuals)))


def _outcomes(results):
    return [(r.name, r.samples, r.max_residual) for r in results]


# The samples each check reports: the residual rows it returns.
_REPORTED_SAMPLES = {
    "kernel_unitarity": 1000,
    "kernel_hermiticity": 1000,
    "kernel_composition": 1000,
    "zeta_normalization": 300,
    "clebsch_gordan_table": 16,
    "clebsch_gordan_orthonormality": 1,
    "chi_completeness": 400,
    "state_normalization": 400,
    "state_orthonormality": 100,
    "standard_form_states": 4,
    "standard_form_operators": 200,
    "axis_aligned_states": 400,
    "operator_hermiticity": 300,
    "operator_spectrum": 300,
    "operator_covariance": 300,
    "oracle_equivalence": 1000,
    "basis_invariance": 100,
    "probability_completeness": 400,
    "singlet_cosine_law": 181,
    "singlet_rotation_invariance": 100,
    "chsh_extremum": 1,
}


@pytest.mark.parametrize("seed", [0, 42])
def test_each_check_runs_alone_on_its_own_stream(seed):
    results = verify.run_verification(seed)
    assert [r.name for r in results] == list(verify.DEFAULT_TOLERANCES)
    assert {r.name: r.samples for r in results} == _REPORTED_SAMPLES
    for index, (row, result) in enumerate(zip(verify._CHECKS, results)):
        assert (result.samples, result.max_residual) == _alone(seed, row, index), row[0]


def test_an_unknown_check_name_in_the_overrides_is_refused():
    # a typo must not leave the check it meant at its default tolerance
    with pytest.raises(KeyError, match="typo"):
        verify.run_verification(0, {"typo": 1.0})


def test_replacing_one_check_leaves_the_others_unchanged(monkeypatch):
    before = _outcomes(verify.run_verification(5))

    def greedy(rng, samples):
        rng.random(10_000)  # far more draws than the check it replaces
        return np.zeros((7, 3))  # and not as many rows as the row's 100 samples

    rows = list(verify._CHECKS)
    index = [row[0] for row in rows].index("zeta_normalization")
    rows[index] = ("zeta_normalization", greedy, *rows[index][2:])
    monkeypatch.setattr(verify, "_CHECKS", tuple(rows))
    after = _outcomes(verify.run_verification(5))
    assert after[index] == ("zeta_normalization", 7, 0.0)
    assert after[:index] + after[index + 1 :] == before[:index] + before[index + 1 :]


@pytest.mark.parametrize("s, M, slot", [(1, 0, 1), (1, 0, 2), (0, 0, 1), (0, 0, 2)])
def test_a_flipped_coupling_sign_fails_both_clebsch_gordan_checks(monkeypatch, s, M, slot):
    # each of these signs alone keeps every row a unit vector but makes
    # (1, 0) and (0, 0) overlap, and the table pins it too
    key = (s, M, *kernels_mod.B_INDEX_ORDER[slot])
    monkeypatch.setitem(kernels_mod._CG, key, -kernels_mod._CG[key])
    rng = np.random.default_rng(0)
    checks = [row for row in verify._CHECKS if row[0].startswith("clebsch_gordan_")]
    assert len(checks) == 2
    for name, check, tol in checks:
        residuals = check(rng)
        assert np.max(np.abs(residuals)) > tol, name
