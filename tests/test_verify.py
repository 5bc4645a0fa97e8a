import dataclasses
import math

import numpy as np
import pytest

import spinpair.kernels as kernels_mod
import spinpair.operators as operators_mod
import spinpair.states as states_mod
from spinpair import verify
from spinpair.directions import Direction


class TestDraw:
    def test_block_equals_successive_uniform_draws(self):
        # a direction, an outcome value, a direction, two outcome values
        fields = [verify._DIRECTION, (-2.0, 2.0), verify._DIRECTION] + 2 * [(-2.0, 2.0)]
        ranges = [(0, math.pi), (0, 2 * math.pi), (-2, 2), (0, math.pi), (0, 2 * math.pi)]
        ranges += 2 * [(-2, 2)]
        seq = np.random.default_rng(11)
        want = [[seq.uniform(low, high) for low, high in ranges] for _ in range(300)]
        rows = list(verify._draw(np.random.default_rng(11), 300, fields))
        got = [[r[0].theta, r[0].phi, r[1], r[2].theta, r[2].phi, r[3], r[4]] for r in rows]
        assert np.array_equal(got, want)
        assert all(isinstance(r[0], Direction) and isinstance(r[1], float) for r in rows)

    def test_single_rows_between_integer_draws_keep_the_stream(self):
        seq, block = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            assert seq.integers(0, 4) == block.integers(0, 4)
            want = [seq.uniform(-2.0, 2.0), seq.uniform(0, math.pi), seq.uniform(0, 2 * math.pi)]
            ((value, d),) = verify._draw(block, 1, [(-2.0, 2.0), verify._DIRECTION])
            assert np.array_equal([value, d.theta, d.phi], want)

    def test_no_rows(self):
        rng = np.random.default_rng(3)
        assert list(verify._draw(rng, 0, [verify._DIRECTION])) == []
        assert rng.random() == np.random.default_rng(3).random()


def _scaled(x):
    return x * (1.0 + 1e-6)


def _scaled_tensor(asm):
    return dataclasses.replace(asm, tensor=_scaled(asm.tensor))


def _nan(x):
    return x * math.nan


@pytest.mark.parametrize(
    "module, name, k, corrupt, check",
    [
        (kernels_mod, "xi_half", 500, _scaled, "kernel_unitarity"),
        (operators_mod, "r_matrix", 100, _scaled, "standard_form_operators"),
        (states_mod, "assemble_state", 50, _scaled_tensor, "state_normalization"),
        (kernels_mod, "xi_half", 500, _nan, "kernel_unitarity"),
    ],
    ids=["xi_half-500", "r_matrix-100", "assemble_state-50", "xi_half-500-nan"],
)
def test_one_faulty_sample_fails_its_check(monkeypatch, module, name, k, corrupt, check):
    # Only the k-th call is wrong; the check that made it must fail, and no other.
    true_fn = getattr(module, name)
    calls, running, making = [0], [None], []

    def faulty(*args):
        calls[0] += 1
        if calls[0] == k:
            making.append(running[0])
            return corrupt(true_fn(*args))
        return true_fn(*args)

    def watched(check_name, fn):
        def run(rng, samples):
            running[0] = check_name
            return fn(rng, samples)

        return run

    monkeypatch.setattr(module, name, faulty)
    rows = tuple((n, watched(n, fn), *rest) for n, fn, *rest in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", rows)
    results = verify.run_verification(0)
    assert making == [check]
    assert [r.name for r in results if not r.passed] == [check]
